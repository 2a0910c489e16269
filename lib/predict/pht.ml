type scheme = Direct | Gshare of { history_bits : int }

type t = {
  table : Counter2.t array;
  owner : int array;  (* last updating pc per entry; -1 = untouched. Metric-only. *)
  mask : int;
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
    mask = entries - 1;
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
    mask = entries - 1;
    scheme = Gshare { history_bits };
    history = 0;
    s_lookups = 0;
    s_hits = 0;
    s_aliases = 0;
    s_sat_hi = 0;
    s_sat_lo = 0;
  }

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
