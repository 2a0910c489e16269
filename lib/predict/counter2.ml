type t = int

let initial = 1
let strongly_taken = 3

let m_sat_hi = Ba_obs.Counter.make ~unit_:"updates" "predict.counter2.sat_hi"
let m_sat_lo = Ba_obs.Counter.make ~unit_:"updates" "predict.counter2.sat_lo"

let predict c = c >= 2

(* Int compares only: [Stdlib.min]/[max] are polymorphic, and without
   flambda each call is a generic compare on the per-branch path. *)
let update c ~taken =
  if taken then if c >= 3 then 3 else c + 1 else if c <= 0 then 0 else c - 1

(* Saturation is detected by the structures that own the counters (a state-3
   taken update or a state-0 not-taken update) and flushed here in bulk once
   their simulation ends, keeping the per-update path registry-free. *)
let flush_sat ~hi ~lo =
  Ba_obs.Counter.add m_sat_hi hi;
  Ba_obs.Counter.add m_sat_lo lo

let of_int n = if n < 0 then 0 else if n > 3 then 3 else n
