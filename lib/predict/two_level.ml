type scheme =
  | Global of { mutable history : int }
  | Local of { histories : int array }

type t = {
  pattern : Counter2.t array;
  pattern_mask : int;
  scheme : scheme;
  (* local books, flushed to the predict.two_level.* counters once per run *)
  mutable s_lookups : int;
  mutable s_hits : int;
  mutable s_sat_hi : int;
  mutable s_sat_lo : int;
}

let check_bits bits =
  if bits < 1 || bits > 24 then invalid_arg "Two_level: history bits out of range"

let create_global ?(history_bits = 12) () =
  check_bits history_bits;
  {
    pattern = Array.make (1 lsl history_bits) Counter2.initial;
    pattern_mask = (1 lsl history_bits) - 1;
    scheme = Global { history = 0 };
    s_lookups = 0;
    s_hits = 0;
    s_sat_hi = 0;
    s_sat_lo = 0;
  }

let create_local ?(history_bits = 12) ?(branch_entries = 1024) () =
  check_bits history_bits;
  if branch_entries <= 0 || branch_entries land (branch_entries - 1) <> 0 then
    invalid_arg "Two_level.create_local: branch_entries must be a power of two";
  {
    pattern = Array.make (1 lsl history_bits) Counter2.initial;
    pattern_mask = (1 lsl history_bits) - 1;
    scheme = Local { histories = Array.make branch_entries 0 };
    s_lookups = 0;
    s_hits = 0;
    s_sat_hi = 0;
    s_sat_lo = 0;
  }

(* Pure indexing, shared with static conflict analysis: which per-branch
   history register the local scheme consults for an address.  Two branches
   mapping to the same register interleave their outcome streams. *)
let local_index ~branch_entries ~pc = pc land (branch_entries - 1)

let index t ~pc =
  match t.scheme with
  | Global { history } -> history land t.pattern_mask
  | Local { histories } ->
    histories.(local_index ~branch_entries:(Array.length histories) ~pc)
    land t.pattern_mask

let m_lookup = Ba_obs.Counter.make ~unit_:"events" "predict.two_level.lookup"
let m_hit = Ba_obs.Counter.make ~unit_:"events" "predict.two_level.hit"

let predict t ~pc =
  t.s_lookups <- t.s_lookups + 1;
  Counter2.predict t.pattern.(index t ~pc)

let update t ~pc ~taken =
  let i = index t ~pc in
  let c = t.pattern.(i) in
  if Counter2.predict c = taken then t.s_hits <- t.s_hits + 1;
  if taken then begin if (c :> int) = 3 then t.s_sat_hi <- t.s_sat_hi + 1 end
  else if (c :> int) = 0 then t.s_sat_lo <- t.s_sat_lo + 1;
  t.pattern.(i) <- Counter2.update c ~taken;
  let bit = if taken then 1 else 0 in
  match t.scheme with
  | Global g -> g.history <- ((g.history lsl 1) lor bit) land t.pattern_mask
  | Local { histories } ->
    let j = local_index ~branch_entries:(Array.length histories) ~pc in
    histories.(j) <- ((histories.(j) lsl 1) lor bit) land t.pattern_mask

let name t =
  match t.scheme with
  | Global _ -> Printf.sprintf "global-2level-%d" (t.pattern_mask + 1)
  | Local _ -> Printf.sprintf "local-2level-%d" (t.pattern_mask + 1)

let flush_obs t =
  Ba_obs.Counter.add m_lookup t.s_lookups;
  Ba_obs.Counter.add m_hit t.s_hits;
  Counter2.flush_sat ~hi:t.s_sat_hi ~lo:t.s_sat_lo;
  t.s_lookups <- 0;
  t.s_hits <- 0;
  t.s_sat_hi <- 0;
  t.s_sat_lo <- 0
