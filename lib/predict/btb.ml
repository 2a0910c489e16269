type entry = {
  mutable tag : int;  (* full pc; -1 = invalid *)
  mutable target : int;
  mutable counter : Counter2.t;
  mutable stamp : int;  (* LRU clock *)
}

type t = {
  sets : entry array array;  (* sets.(set).(way) *)
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

let create ~entries ~assoc =
  if assoc <= 0 || entries <= 0 || entries mod assoc <> 0 then
    invalid_arg "Btb.create: entries must be a positive multiple of assoc";
  let n_sets = entries / assoc in
  if n_sets land (n_sets - 1) <> 0 then
    invalid_arg "Btb.create: set count must be a power of two";
  let fresh_entry () = { tag = -1; target = 0; counter = Counter2.initial; stamp = 0 } in
  {
    sets = Array.init n_sets (fun _ -> Array.init assoc (fun _ -> fresh_entry ()));
    clock = 0;
    s_lookups = 0;
    s_hits = 0;
    s_misses = 0;
    s_allocs = 0;
    s_evicts = 0;
    s_sat_hi = 0;
    s_sat_lo = 0;
  }

(* Pure indexing, shared with static conflict analysis: the tag is the full
   branch address, the set is its low bits. *)
let set_index ~entries ~assoc ~pc = pc land ((entries / assoc) - 1)
let tag_of ~pc = pc

let set_of t ~pc =
  let assoc = Array.length t.sets.(0) in
  let entries = Array.length t.sets * assoc in
  t.sets.(set_index ~entries ~assoc ~pc)

(* The way holding [pc]'s tag, or -1: an index from a loop, so the
   per-event path builds no closure and no option. *)
let find_way set ~pc =
  let tag = tag_of ~pc in
  let n = Array.length set in
  let i = ref 0 in
  while !i < n && set.(!i).tag <> tag do
    incr i
  done;
  if !i = n then -1 else !i

let probe t ~pc =
  t.s_lookups <- t.s_lookups + 1;
  let set = set_of t ~pc in
  let w = find_way set ~pc in
  if w < 0 then begin
    t.s_misses <- t.s_misses + 1;
    -1
  end
  else begin
    t.s_hits <- t.s_hits + 1;
    let e = set.(w) in
    (e.target lsl 1) lor if Counter2.predict e.counter then 1 else 0
  end

let touch t e =
  t.clock <- t.clock + 1;
  e.stamp <- t.clock

let update t ~pc ~taken ~target =
  if target < 0 then invalid_arg "Btb.update: negative target";
  let set = set_of t ~pc in
  let w = find_way set ~pc in
  if w >= 0 then begin
    let e = set.(w) in
    if taken then begin if (e.counter :> int) = 3 then t.s_sat_hi <- t.s_sat_hi + 1 end
    else if (e.counter :> int) = 0 then t.s_sat_lo <- t.s_sat_lo + 1;
    e.counter <- Counter2.update e.counter ~taken;
    if taken then e.target <- target;
    touch t e
  end
  else if taken then begin
    (* Allocate, evicting the LRU way (invalid entries have stamp 0 and
       lose ties, so they are filled first). *)
    let victim = ref set.(0) in
    for i = 1 to Array.length set - 1 do
      if set.(i).stamp < !victim.stamp then victim := set.(i)
    done;
    let victim = !victim in
    t.s_allocs <- t.s_allocs + 1;
    if victim.tag >= 0 then t.s_evicts <- t.s_evicts + 1;
    victim.tag <- tag_of ~pc;
    victim.target <- target;
    victim.counter <- Counter2.strongly_taken;
    touch t victim
  end

let entries t = Array.length t.sets * Array.length t.sets.(0)
let assoc t = Array.length t.sets.(0)

let occupancy t =
  Array.fold_left
    (fun acc set -> Array.fold_left (fun acc e -> if e.tag >= 0 then acc + 1 else acc) acc set)
    0 t.sets

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
