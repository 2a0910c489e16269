type set = { tags : int array; stamps : int array }

type t = {
  sets : set array;
  insns_per_line : int;
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
  (* flush_obs reports deltas since the previous flush *)
  mutable flushed_accesses : int;
  mutable flushed_misses : int;
}

let create ?(lines = 256) ?(insns_per_line = 8) ?(assoc = 1) () =
  if lines <= 0 || assoc <= 0 || lines mod assoc <> 0 then
    invalid_arg "Icache.create: lines must be a positive multiple of assoc";
  let n_sets = lines / assoc in
  if n_sets land (n_sets - 1) <> 0 then
    invalid_arg "Icache.create: set count must be a power of two";
  if insns_per_line <= 0 then invalid_arg "Icache.create: bad line size";
  {
    sets = Array.init n_sets (fun _ -> { tags = Array.make assoc (-1); stamps = Array.make assoc 0 });
    insns_per_line;
    clock = 0;
    accesses = 0;
    misses = 0;
    flushed_accesses = 0;
    flushed_misses = 0;
  }

let m_access = Ba_obs.Counter.make ~unit_:"lines" "predict.icache.access"
let m_miss = Ba_obs.Counter.make ~unit_:"lines" "predict.icache.miss"

(* Pure indexing, shared with static conflict analysis. *)
let line_of ~insns_per_line ~addr = addr / insns_per_line
let set_index ~lines ~assoc ~line = line land ((lines / assoc) - 1)

let access_line t line_no =
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  let assoc = Array.length t.sets.(0).tags in
  let lines = Array.length t.sets * assoc in
  let set = t.sets.(set_index ~lines ~assoc ~line:line_no) in
  let ways = Array.length set.tags in
  let rec find i = if i = ways then None else if set.tags.(i) = line_no then Some i else find (i + 1) in
  match find 0 with
  | Some way -> set.stamps.(way) <- t.clock
  | None ->
    t.misses <- t.misses + 1;
    (* Evict the LRU way (invalid ways have stamp 0 and lose ties). *)
    let victim = ref 0 in
    for w = 1 to ways - 1 do
      if set.stamps.(w) < set.stamps.(!victim) then victim := w
    done;
    set.tags.(!victim) <- line_no;
    set.stamps.(!victim) <- t.clock

let touch_range t ~addr ~size =
  if size <= 0 then 0
  else begin
    let before = t.misses in
    let first = line_of ~insns_per_line:t.insns_per_line ~addr in
    let last = line_of ~insns_per_line:t.insns_per_line ~addr:(addr + size - 1) in
    for line = first to last do
      access_line t line
    done;
    t.misses - before
  end

let misses t = t.misses
let accesses t = t.accesses

let flush_obs t =
  Ba_obs.Counter.add m_access (t.accesses - t.flushed_accesses);
  Ba_obs.Counter.add m_miss (t.misses - t.flushed_misses);
  t.flushed_accesses <- t.accesses;
  t.flushed_misses <- t.misses
