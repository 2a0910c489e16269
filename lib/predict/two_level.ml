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

let m_lookup = Ba_obs.Counter.make ~unit_:"events" "predict.two_level.lookup"
let m_hit = Ba_obs.Counter.make ~unit_:"events" "predict.two_level.hit"

let access t ~pc ~taken =
  t.s_lookups <- t.s_lookups + 1;
  let bit = Bool.to_int taken in
  (* read the history register once, shifting the outcome in as it goes *)
  let history =
    match t.scheme with
    | Global g ->
      let h = g.history in
      g.history <- ((h lsl 1) lor bit) land t.pattern_mask;
      h
    | Local { histories } ->
      let j = local_index ~branch_entries:(Array.length histories) ~pc in
      let h = histories.(j) in
      histories.(j) <- ((h lsl 1) lor bit) land t.pattern_mask;
      h
  in
  let i = history land t.pattern_mask in
  let c = t.pattern.(i) in
  let predicted = Counter2.predict c in
  (* books as in Pht.access: [Bool.to_int] sums, not branches *)
  t.s_hits <- t.s_hits + Bool.to_int (predicted = taken);
  let step = (c :> int) + bit in
  t.s_sat_hi <- t.s_sat_hi + Bool.to_int (step = 4);
  t.s_sat_lo <- t.s_sat_lo + Bool.to_int (step = 0);
  t.pattern.(i) <- Counter2.update c ~taken;
  predicted

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
