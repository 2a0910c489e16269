(* Readings from /proc: peak resident memory and CPU time of a process, and
   the host's steal time and load average for noise attribution. *)

let read file = In_channel.with_open_bin file In_channel.input_all

(* VmHWM of [pid] ("self" for this process), in MB. *)
let peak_rss_mb pid =
  let status = read (Printf.sprintf "/proc/%s/status" pid) in
  let line =
    List.find
      (String.starts_with ~prefix:"VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* User plus system CPU seconds of every thread of [pid].  Linux reports
   /proc ticks in USER_HZ, which is 100 on every architecture it runs on. *)
let cpu_seconds pid =
  let stat = read (Printf.sprintf "/proc/%d/stat" pid) in
  (* The command name may hold spaces; fields resume after its ')'. *)
  let close = String.rindex stat ')' in
  let rest = String.sub stat (close + 2) (String.length stat - close - 2) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* fields.(0) is field 3 (state); utime and stime are fields 14 and 15. *)
  float_of_int (int_of_string fields.(11) + int_of_string fields.(12)) /. 100.0

type host = { steal : int; total : int }

let host () =
  let first = List.hd (String.split_on_char '\n' (read "/proc/stat")) in
  let ticks =
    List.filter_map int_of_string_opt (String.split_on_char ' ' first)
  in
  (* user nice system idle iowait irq softirq steal; guest time is already
     counted in user. *)
  let ticks = List.filteri (fun i _ -> i < 8) ticks in
  { steal = List.nth ticks 7; total = List.fold_left ( + ) 0 ticks }

let steal_pct a b =
  let total = b.total - a.total in
  if total <= 0 then 0.0
  else 100.0 *. float_of_int (b.steal - a.steal) /. float_of_int total

let loadavg_1m () = Scanf.sscanf (read "/proc/loadavg") "%f" Fun.id
