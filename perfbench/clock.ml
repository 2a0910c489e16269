(* Monotonic seconds: wall-clock steps (NTP) must not leak into latencies. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
