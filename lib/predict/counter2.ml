type t = int

let initial = 1
let strongly_taken = 3

let m_sat_hi = Ba_obs.Counter.make ~unit_:"updates" "predict.counter2.sat_hi"
let m_sat_lo = Ba_obs.Counter.make ~unit_:"updates" "predict.counter2.sat_lo"

let predict c = c >= 2

(* The next state indexed by [c lsl 1 lor taken]: a table read, not
   branches on [taken] and [c].  A branch on a simulated outcome
   mispredicts on the host about as often as the simulated branch does,
   and every conditional of every simulated architecture steps a
   counter. *)
let next = [| 0; 1; 0; 2; 1; 3; 2; 3 |]

(* every [t] is in [0, 3], so the index is in [0, 7] *)
let update c ~taken = Array.unsafe_get next ((c lsl 1) lor Bool.to_int taken)

(* Saturation is detected by the structures that own the counters (a state-3
   taken update or a state-0 not-taken update) and flushed here in bulk once
   their simulation ends, keeping the per-update path registry-free. *)
let flush_sat ~hi ~lo =
  Ba_obs.Counter.add m_sat_hi hi;
  Ba_obs.Counter.add m_sat_lo lo

let of_int n = if n < 0 then 0 else if n > 3 then 3 else n
let of_bits n = n land 3
