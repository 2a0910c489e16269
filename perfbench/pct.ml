(* Nearest-rank percentiles: the reported value is always a measured sample,
   never an interpolation between two. *)

let nearest_rank sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Pct.nearest_rank: no samples";
  if not (q > 0.0 && q <= 1.0) then invalid_arg "Pct.nearest_rank: q outside (0, 1]";
  (* The epsilon keeps q * n = 9.000000000000002 at rank 9. *)
  let rank = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)) in
  sorted.(max 1 (min n rank) - 1)

let of_list q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  nearest_rank a q

let median xs = of_list 0.5 xs
