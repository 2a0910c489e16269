type t =
  | Always of bool
  | Bias of float
  | Loop of int
  | Pattern of bool array
  | Correlated of { bits : int; table : bool array; noise : float }
  | Markov of { p_stay_true : float; p_stay_false : float; init : bool }

let probability_ok p = p >= 0.0 && p <= 1.0

let validate = function
  | Always _ -> Ok ()
  | Bias p ->
    if probability_ok p then Ok () else Error "Bias: probability out of [0,1]"
  | Loop n -> if n >= 1 then Ok () else Error "Loop: trip count must be >= 1"
  | Pattern a ->
    if Array.length a > 0 then Ok () else Error "Pattern: empty pattern"
  | Correlated { bits; table; noise } ->
    if bits < 1 || bits > 16 then Error "Correlated: bits must be in [1,16]"
    else if Array.length table <> 1 lsl bits then
      Error "Correlated: table must have 2^bits entries"
    else if not (probability_ok noise) then
      Error "Correlated: noise out of [0,1]"
    else Ok ()
  | Markov { p_stay_true; p_stay_false; _ } ->
    if probability_ok p_stay_true && probability_ok p_stay_false then Ok ()
    else Error "Markov: probability out of [0,1]"

let count_true a = Array.fold_left (fun n b -> if b then n + 1 else n) 0 a

let mean_rate = function
  | Always b -> if b then 1.0 else 0.0
  | Bias p -> p
  | Loop n -> float_of_int (n - 1) /. float_of_int n
  | Pattern a -> float_of_int (count_true a) /. float_of_int (Array.length a)
  | Correlated { table; noise; _ } ->
    (* Approximation assuming a uniform history distribution. *)
    let base = float_of_int (count_true table) /. float_of_int (Array.length table) in
    (base *. (1.0 -. noise)) +. ((1.0 -. base) *. noise)
  | Markov { p_stay_true; p_stay_false; init } ->
    (* Stationary distribution of the two-state chain; a chain that can
       leave neither state stays in [init] for ever. *)
    let leave_true = 1.0 -. p_stay_true and leave_false = 1.0 -. p_stay_false in
    if leave_true +. leave_false = 0.0 then if init then 1.0 else 0.0
    else leave_false /. (leave_true +. leave_false)

type state = {
  rng : Ba_util.Rng.t;
  mutable counter : int;  (* Loop position / Pattern index *)
  mutable last : bool;    (* Markov current state *)
}

let init_state b rng =
  let last = match b with Markov { init; _ } -> init | _ -> false in
  { rng; counter = 0; last }

let next b st ~history =
  match b with
  | Always v -> v
  | Bias p -> Ba_util.Rng.bernoulli st.rng p
  | Loop n ->
    let continue_loop = st.counter < n - 1 in
    st.counter <- (if continue_loop then st.counter + 1 else 0);
    continue_loop
  | Pattern a ->
    let v = a.(st.counter) in
    st.counter <- (st.counter + 1) mod Array.length a;
    v
  | Correlated { bits; table; noise } ->
    let v = table.(history land ((1 lsl bits) - 1)) in
    if noise > 0.0 && Ba_util.Rng.bernoulli st.rng noise then not v else v
  | Markov { p_stay_true; p_stay_false; _ } ->
    let stay = if st.last then p_stay_true else p_stay_false in
    let v = if Ba_util.Rng.bernoulli st.rng stay then st.last else not st.last in
    st.last <- v;
    v

let pp ppf = function
  | Always b -> Fmt.pf ppf "always %b" b
  | Bias p -> Fmt.pf ppf "bias %.3f" p
  | Loop n -> Fmt.pf ppf "loop %d" n
  | Pattern a ->
    Fmt.pf ppf "pattern %s"
      (String.concat "" (Array.to_list (Array.map (fun b -> if b then "T" else "N") a)))
  | Correlated { bits; noise; _ } -> Fmt.pf ppf "correlated bits=%d noise=%.3f" bits noise
  | Markov { p_stay_true; p_stay_false; _ } ->
    Fmt.pf ppf "markov tt=%.3f ff=%.3f" p_stay_true p_stay_false
