type scheme = Direct | Gshare of { history_bits : int }

type t = {
  (* One word per entry: [owner lsl 2 lor counter], where [owner] is the
     last pc to train the entry (-1 = untouched; it feeds the metric-only
     predict.pht.alias book) and [counter] the entry's Counter2.t. *)
  table : int array;
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

let pack ~owner (c : Counter2.t) = (owner lsl 2) lor (c :> int)

let check_power_of_two n =
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg "Pht: entry count must be a positive power of two"

let make ~entries scheme =
  {
    table = Array.make entries (pack ~owner:(-1) Counter2.initial);
    scheme;
    history = 0;
    s_lookups = 0;
    s_hits = 0;
    s_aliases = 0;
    s_sat_hi = 0;
    s_sat_lo = 0;
  }

let create_direct ~entries =
  check_power_of_two entries;
  make ~entries Direct

let create_gshare ~entries ~history_bits =
  check_power_of_two entries;
  if history_bits < 1 || history_bits > 30 then
    invalid_arg "Pht.create_gshare: history_bits out of range";
  make ~entries (Gshare { history_bits })

(* The pure indexing functions.  Simulation (below) and static conflict
   analysis (Ba_conflict) both go through these, so the two views of "which
   counter does this branch hash to" cannot drift apart. *)
let direct_index ~entries ~pc = pc land (entries - 1)
let gshare_index ~entries ~history ~pc = (pc lxor history) land (entries - 1)

let index t ~pc =
  let entries = Array.length t.table in
  match t.scheme with
  | Direct -> direct_index ~entries ~pc
  | Gshare _ -> gshare_index ~entries ~history:t.history ~pc

let predict t ~pc = Counter2.predict (Counter2.of_bits t.table.(index t ~pc))

let access t ~pc ~taken =
  t.s_lookups <- t.s_lookups + 1;
  let i = index t ~pc in
  let e = t.table.(i) in
  let c = Counter2.of_bits e in
  let predicted = Counter2.predict c in
  (* outcome-dependent books are sums of [Bool.to_int], not branches (see
     Counter2.update); [c + taken] leaves [0, 3] exactly when the update
     saturates *)
  t.s_hits <- t.s_hits + Bool.to_int (predicted = taken);
  let step = (c :> int) + Bool.to_int taken in
  t.s_sat_hi <- t.s_sat_hi + Bool.to_int (step = 4);
  t.s_sat_lo <- t.s_sat_lo + Bool.to_int (step = 0);
  (* [e >= 0] iff the entry has an owner *)
  if e >= 0 && e asr 2 <> pc then t.s_aliases <- t.s_aliases + 1;
  t.table.(i) <- pack ~owner:pc (Counter2.update c ~taken);
  (match t.scheme with
  | Direct -> ()
  | Gshare { history_bits } ->
    t.history <- ((t.history lsl 1) lor Bool.to_int taken) land ((1 lsl history_bits) - 1));
  predicted

let entries t = Array.length t.table

let flush_obs t =
  Ba_obs.Counter.add m_lookup t.s_lookups;
  Ba_obs.Counter.add m_hit t.s_hits;
  Ba_obs.Counter.add m_alias t.s_aliases;
  Counter2.flush_sat ~hi:t.s_sat_hi ~lo:t.s_sat_lo;
  t.s_lookups <- 0;
  t.s_hits <- 0;
  t.s_aliases <- 0;
  t.s_sat_hi <- 0;
  t.s_sat_lo <- 0
