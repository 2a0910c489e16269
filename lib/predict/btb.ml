(* One flat slot per way, [slot = set * assoc + way], held in parallel int
   arrays so a set scan reads contiguous words instead of hopping through
   one record per way. *)
type t = {
  tags : int array;  (* full pc; -1 = invalid *)
  targets : int array;
  counters : Counter2.t array;
  stamps : int array;  (* LRU clock at the last touch; 0 = never touched *)
  assoc : int;
  set_mask : int;  (* set count - 1, fixed at [create] *)
  mutable clock : int;
  (* local books, flushed to the predict.btb.* counters once per run *)
  mutable s_lookups : int;
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_allocs : int;
  mutable s_evicts : int;
  mutable s_sat_hi : int;
  mutable s_sat_lo : int;
}

let m_lookup = Ba_obs.Counter.make ~unit_:"events" "predict.btb.lookup"
let m_hit = Ba_obs.Counter.make ~unit_:"events" "predict.btb.hit"
let m_miss = Ba_obs.Counter.make ~unit_:"events" "predict.btb.miss"
let m_alloc = Ba_obs.Counter.make ~unit_:"events" "predict.btb.alloc"
let m_evict = Ba_obs.Counter.make ~unit_:"events" "predict.btb.evict"

(* Pure indexing, shared with static conflict analysis: the tag is the full
   branch address, the set is its low bits.  [set_index] and the simulator
   both apply [set_of]; the simulator fixes the mask once, at [create]. *)
let set_mask ~entries ~assoc = (entries / assoc) - 1
let set_of ~set_mask ~pc = pc land set_mask
let set_index ~entries ~assoc ~pc = set_of ~set_mask:(set_mask ~entries ~assoc) ~pc
let tag_of ~pc = pc

let create ~entries ~assoc =
  if assoc <= 0 || entries <= 0 || entries mod assoc <> 0 then
    invalid_arg "Btb.create: entries must be a positive multiple of assoc";
  let n_sets = entries / assoc in
  if n_sets land (n_sets - 1) <> 0 then
    invalid_arg "Btb.create: set count must be a power of two";
  {
    tags = Array.make entries (-1);
    targets = Array.make entries 0;
    counters = Array.make entries Counter2.initial;
    stamps = Array.make entries 0;
    assoc;
    set_mask = set_mask ~entries ~assoc;
    clock = 0;
    s_lookups = 0;
    s_hits = 0;
    s_misses = 0;
    s_allocs = 0;
    s_evicts = 0;
    s_sat_hi = 0;
    s_sat_lo = 0;
  }

(* One pass over [pc]'s set: the slot holding its tag, or, on a miss,
   [-1 - v] where [v] is the set's LRU slot (the first lowest stamp, so
   invalid slots, stamp 0, fill first).  The masked set times [assoc] plus
   a way stays below [entries], so the reads need no bounds check. *)
let scan t ~pc =
  let tag = tag_of ~pc in
  let base = set_of ~set_mask:t.set_mask ~pc * t.assoc in
  let last = base + t.assoc - 1 in
  let s = ref base and lru = ref base in
  while !s <= last && Array.unsafe_get t.tags !s <> tag do
    if Array.unsafe_get t.stamps !s < Array.unsafe_get t.stamps !lru then lru := !s;
    incr s
  done;
  if !s <= last then !s else -1 - !lru

let answer t s = (t.targets.(s) lsl 1) lor Bool.to_int (Counter2.predict t.counters.(s))

let probe t ~pc =
  let s = scan t ~pc in
  if s < 0 then -1 else answer t s

let touch t s =
  t.clock <- t.clock + 1;
  t.stamps.(s) <- t.clock

let access t ~pc ~taken ~target =
  if target < 0 then invalid_arg "Btb.access: negative target";
  t.s_lookups <- t.s_lookups + 1;
  let s = scan t ~pc in
  if s >= 0 then begin
    t.s_hits <- t.s_hits + 1;
    let p = answer t s in
    (* as in Pht.access, the outcome-dependent training is arithmetic on
       [Bool.to_int taken], not branches: a taken hit stores [target] *)
    let c = t.counters.(s) in
    let step = (c :> int) + Bool.to_int taken in
    t.s_sat_hi <- t.s_sat_hi + Bool.to_int (step = 4);
    t.s_sat_lo <- t.s_sat_lo + Bool.to_int (step = 0);
    t.counters.(s) <- Counter2.update c ~taken;
    let stored = t.targets.(s) in
    t.targets.(s) <- stored + ((target - stored) * Bool.to_int taken);
    touch t s;
    p
  end
  else begin
    t.s_misses <- t.s_misses + 1;
    if taken then begin
      (* allocate in the LRU slot the scan found *)
      let v = -1 - s in
      t.s_allocs <- t.s_allocs + 1;
      if t.tags.(v) >= 0 then t.s_evicts <- t.s_evicts + 1;
      t.tags.(v) <- tag_of ~pc;
      t.targets.(v) <- target;
      t.counters.(v) <- Counter2.strongly_taken;
      touch t v
    end;
    -1
  end

let occupancy t = Array.fold_left (fun acc tag -> if tag >= 0 then acc + 1 else acc) 0 t.tags

let flush_obs t =
  Ba_obs.Counter.add m_lookup t.s_lookups;
  Ba_obs.Counter.add m_hit t.s_hits;
  Ba_obs.Counter.add m_miss t.s_misses;
  Ba_obs.Counter.add m_alloc t.s_allocs;
  Ba_obs.Counter.add m_evict t.s_evicts;
  Counter2.flush_sat ~hi:t.s_sat_hi ~lo:t.s_sat_lo;
  t.s_lookups <- 0;
  t.s_hits <- 0;
  t.s_misses <- 0;
  t.s_allocs <- 0;
  t.s_evicts <- 0;
  t.s_sat_hi <- 0;
  t.s_sat_lo <- 0
