(* One flat slot per way, [slot = set * assoc + way], in parallel int
   arrays with the set mask fixed at [create], as in Btb. *)
type t = {
  tags : int array;  (* line number held; -1 = invalid *)
  stamps : int array;  (* LRU clock at the last touch; 0 = never touched *)
  assoc : int;
  set_mask : int;  (* set count - 1 *)
  insns_per_line : int;
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
  (* flush_obs reports deltas since the previous flush *)
  mutable flushed_accesses : int;
  mutable flushed_misses : int;
}

(* Pure indexing, shared with static conflict analysis; [set_index] and
   the model both apply [set_of]. *)
let line_of ~insns_per_line ~addr = addr / insns_per_line
let set_mask ~lines ~assoc = (lines / assoc) - 1
let set_of ~set_mask ~line = line land set_mask
let set_index ~lines ~assoc ~line = set_of ~set_mask:(set_mask ~lines ~assoc) ~line

let create ?(lines = 256) ?(insns_per_line = 8) ?(assoc = 1) () =
  if lines <= 0 || assoc <= 0 || lines mod assoc <> 0 then
    invalid_arg "Icache.create: lines must be a positive multiple of assoc";
  let n_sets = lines / assoc in
  if n_sets land (n_sets - 1) <> 0 then
    invalid_arg "Icache.create: set count must be a power of two";
  if insns_per_line <= 0 then invalid_arg "Icache.create: bad line size";
  {
    tags = Array.make lines (-1);
    stamps = Array.make lines 0;
    assoc;
    set_mask = set_mask ~lines ~assoc;
    insns_per_line;
    clock = 0;
    accesses = 0;
    misses = 0;
    flushed_accesses = 0;
    flushed_misses = 0;
  }

let m_access = Ba_obs.Counter.make ~unit_:"lines" "predict.icache.access"
let m_miss = Ba_obs.Counter.make ~unit_:"lines" "predict.icache.miss"

(* One scan of the set finds the line's way or, on a miss, the LRU victim
   (the first lowest stamp: invalid ways, stamp 0, fill first).  The
   masked set times [assoc] plus a way stays below [lines], so the reads
   need no bounds check. *)
let access_line t line_no =
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  let base = set_of ~set_mask:t.set_mask ~line:line_no * t.assoc in
  let last = base + t.assoc - 1 in
  let s = ref base and lru = ref base in
  while !s <= last && Array.unsafe_get t.tags !s <> line_no do
    if Array.unsafe_get t.stamps !s < Array.unsafe_get t.stamps !lru then lru := !s;
    incr s
  done;
  if !s <= last then t.stamps.(!s) <- t.clock
  else begin
    t.misses <- t.misses + 1;
    t.tags.(!lru) <- line_no;
    t.stamps.(!lru) <- t.clock
  end

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
