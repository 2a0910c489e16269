(* Reference models of the BTB, the PHTs and the instruction cache: the
   record-per-way BTB and the two-array (counter, owner) PHT, each with a
   separate lookup and update, as the simulator ran them before
   [Btb.access] and [Pht.access] fused the two into one pass over flat
   arrays, and the array-of-sets icache that divided out its set count on
   every line.  The predictor wall in test_predict.ml drives each model
   and its production structure with the same streams and requires equal
   answers and equal flushed books, which go to the same [predict.*]
   counters. *)

open Ba_predict

module Btb = struct
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

  (* The tag is the full branch address, the set is its low bits. *)
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
    Counter2.flush_sat ~hi:t.s_sat_hi ~lo:t.s_sat_lo
end

module Pht = struct
  type scheme = Direct | Gshare of { history_bits : int }

  type t = {
    table : Counter2.t array;
    owner : int array;  (* last updating pc per entry; -1 = untouched. Metric-only. *)
    scheme : scheme;
    mutable history : int;
    (* local books, flushed to the predict.pht.* counters once per run *)
    mutable s_lookups : int;
    mutable s_hits : int;
    mutable s_aliases : int;
    mutable s_sat_hi : int;
    mutable s_sat_lo : int;
  }

  let m_lookup = Ba_obs.Counter.make ~unit_:"events" "predict.pht.lookup"
  let m_hit = Ba_obs.Counter.make ~unit_:"events" "predict.pht.hit"
  let m_alias = Ba_obs.Counter.make ~unit_:"events" "predict.pht.alias"

  let check_power_of_two n =
    if n <= 0 || n land (n - 1) <> 0 then
      invalid_arg "Pht: entry count must be a positive power of two"

  let create_direct ~entries =
    check_power_of_two entries;
    {
      table = Array.make entries Counter2.initial;
      owner = Array.make entries (-1);
      scheme = Direct;
      history = 0;
      s_lookups = 0;
      s_hits = 0;
      s_aliases = 0;
      s_sat_hi = 0;
      s_sat_lo = 0;
    }

  let create_gshare ~entries ~history_bits =
    check_power_of_two entries;
    if history_bits < 1 || history_bits > 30 then
      invalid_arg "Pht.create_gshare: history_bits out of range";
    {
      table = Array.make entries Counter2.initial;
      owner = Array.make entries (-1);
      scheme = Gshare { history_bits };
      history = 0;
      s_lookups = 0;
      s_hits = 0;
      s_aliases = 0;
      s_sat_hi = 0;
      s_sat_lo = 0;
    }

  let direct_index ~entries ~pc = pc land (entries - 1)
  let gshare_index ~entries ~history ~pc = (pc lxor history) land (entries - 1)

  let index t ~pc =
    let entries = Array.length t.table in
    match t.scheme with
    | Direct -> direct_index ~entries ~pc
    | Gshare _ -> gshare_index ~entries ~history:t.history ~pc

  let predict t ~pc =
    t.s_lookups <- t.s_lookups + 1;
    Counter2.predict t.table.(index t ~pc)

  let update t ~pc ~taken =
    let i = index t ~pc in
    let c = t.table.(i) in
    if Counter2.predict c = taken then t.s_hits <- t.s_hits + 1;
    if t.owner.(i) >= 0 && t.owner.(i) <> pc then t.s_aliases <- t.s_aliases + 1;
    if taken then begin if (c :> int) = 3 then t.s_sat_hi <- t.s_sat_hi + 1 end
    else if (c :> int) = 0 then t.s_sat_lo <- t.s_sat_lo + 1;
    t.owner.(i) <- pc;
    t.table.(i) <- Counter2.update c ~taken;
    match t.scheme with
    | Direct -> ()
    | Gshare { history_bits } ->
      t.history <- ((t.history lsl 1) lor if taken then 1 else 0) land ((1 lsl history_bits) - 1)

  let flush_obs t =
    Ba_obs.Counter.add m_lookup t.s_lookups;
    Ba_obs.Counter.add m_hit t.s_hits;
    Ba_obs.Counter.add m_alias t.s_aliases;
    Counter2.flush_sat ~hi:t.s_sat_hi ~lo:t.s_sat_lo
end

module Icache = struct
  type set = { tags : int array; stamps : int array }

  type t = {
    sets : set array;
    insns_per_line : int;
    mutable clock : int;
    mutable accesses : int;
    mutable misses : int;
  }

  let create ~lines ~insns_per_line ~assoc =
    {
      sets =
        Array.init (lines / assoc) (fun _ ->
            { tags = Array.make assoc (-1); stamps = Array.make assoc 0 });
      insns_per_line;
      clock = 0;
      accesses = 0;
      misses = 0;
    }

  let line_of ~insns_per_line ~addr = addr / insns_per_line
  let set_index ~lines ~assoc ~line = line land ((lines / assoc) - 1)

  let access_line t line_no =
    t.accesses <- t.accesses + 1;
    t.clock <- t.clock + 1;
    let assoc = Array.length t.sets.(0).tags in
    let lines = Array.length t.sets * assoc in
    let set = t.sets.(set_index ~lines ~assoc ~line:line_no) in
    let ways = Array.length set.tags in
    let way = ref 0 in
    while !way < ways && set.tags.(!way) <> line_no do
      incr way
    done;
    if !way < ways then set.stamps.(!way) <- t.clock
    else begin
      t.misses <- t.misses + 1;
      (* Evict the LRU way (invalid ways have stamp 0 and lose ties). *)
      let victim = ref 0 in
      for w = 1 to ways - 1 do
        if set.stamps.(w) < set.stamps.(!victim) then victim := w
      done;
      set.tags.(!victim) <- line_no;
      set.stamps.(!victim) <- t.clock
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
end
