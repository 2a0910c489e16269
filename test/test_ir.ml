(* Tests for Ba_ir: behaviours, terminators, procedure/program validation. *)

open Ba_ir

let rng seed = Ba_util.Rng.create seed

let drawn behavior ~n ~seed =
  let st = Behavior.init_state behavior (rng seed) in
  let history = ref 0 in
  List.init n (fun _ ->
      let v = Behavior.next behavior st ~history:!history in
      history := (!history lsl 1) lor (if v then 1 else 0);
      v)

let rate xs =
  let t = List.length (List.filter Fun.id xs) in
  float_of_int t /. float_of_int (List.length xs)

(* -- Behavior ------------------------------------------------------------ *)

let test_always () =
  Alcotest.(check (list bool)) "always true" [ true; true; true ]
    (drawn (Behavior.Always true) ~n:3 ~seed:1);
  Alcotest.(check (list bool)) "always false" [ false; false ]
    (drawn (Behavior.Always false) ~n:2 ~seed:1)

let test_bias_rate () =
  let xs = drawn (Behavior.Bias 0.8) ~n:20_000 ~seed:2 in
  Alcotest.(check (float 0.02)) "bias rate" 0.8 (rate xs)

let test_loop_shape () =
  (* Loop 4: T T T N repeating. *)
  Alcotest.(check (list bool)) "loop 4"
    [ true; true; true; false; true; true; true; false ]
    (drawn (Behavior.Loop 4) ~n:8 ~seed:3)

let test_loop_one () =
  Alcotest.(check (list bool)) "loop 1 never continues" [ false; false; false ]
    (drawn (Behavior.Loop 1) ~n:3 ~seed:3)

let test_pattern () =
  let p = Behavior.Pattern [| true; false; false |] in
  Alcotest.(check (list bool)) "pattern repeats"
    [ true; false; false; true; false; false; true ]
    (drawn p ~n:7 ~seed:4)

let test_correlated_follows_history () =
  (* Outcome = bit 0 of history (i.e. repeat the previous global outcome). *)
  let b = Behavior.Correlated { bits = 1; table = [| false; true |]; noise = 0.0 } in
  let st = Behavior.init_state b (rng 5) in
  Alcotest.(check bool) "history 0 -> false" false (Behavior.next b st ~history:0);
  Alcotest.(check bool) "history 1 -> true" true (Behavior.next b st ~history:1);
  Alcotest.(check bool) "history 2 -> false" false (Behavior.next b st ~history:2)

let test_correlated_noise () =
  let b = Behavior.Correlated { bits = 1; table = [| false; false |]; noise = 1.0 } in
  let st = Behavior.init_state b (rng 6) in
  Alcotest.(check bool) "full noise flips" true (Behavior.next b st ~history:0)

let test_markov_runs () =
  (* Very sticky chain: long runs of equal outcomes. *)
  let b = Behavior.Markov { p_stay_true = 0.95; p_stay_false = 0.95; init = false } in
  let xs = drawn b ~n:10_000 ~seed:7 in
  let switches =
    let rec count acc = function
      | a :: (b :: _ as rest) -> count (if a <> b then acc + 1 else acc) rest
      | _ -> acc
    in
    count 0 xs
  in
  (* Expected switch rate is 5%; allow generous slack. *)
  Alcotest.(check bool) "few switches" true (switches < 800)

let test_markov_stationary () =
  let b = Behavior.Markov { p_stay_true = 0.9; p_stay_false = 0.6; init = false } in
  (* stationary P(true) = (1-0.6) / ((1-0.9) + (1-0.6)) = 0.8 *)
  Alcotest.(check (float 1e-9)) "mean_rate" 0.8 (Behavior.mean_rate b);
  let xs = drawn b ~n:40_000 ~seed:8 in
  Alcotest.(check (float 0.02)) "empirical rate" 0.8 (rate xs)

let test_mean_rate () =
  Alcotest.(check (float 1e-9)) "always" 1.0 (Behavior.mean_rate (Behavior.Always true));
  Alcotest.(check (float 1e-9)) "bias" 0.25 (Behavior.mean_rate (Behavior.Bias 0.25));
  Alcotest.(check (float 1e-9)) "loop" 0.75 (Behavior.mean_rate (Behavior.Loop 4));
  Alcotest.(check (float 1e-9)) "pattern" (1.0 /. 3.0)
    (Behavior.mean_rate (Behavior.Pattern [| true; false; false |]));
  (* A chain that can leave neither state never leaves [init]. *)
  List.iter
    (fun init ->
      let b = Behavior.Markov { p_stay_true = 1.0; p_stay_false = 1.0; init } in
      let expected = if init then 1.0 else 0.0 in
      Alcotest.(check (float 1e-9)) "absorbing markov" expected (Behavior.mean_rate b);
      Alcotest.(check (float 1e-9)) "absorbing markov draws" expected
        (rate (drawn b ~n:1_000 ~seed:3)))
    [ true; false ]

let test_behavior_validate () =
  let ok b = Alcotest.(check bool) "valid" true (Result.is_ok (Behavior.validate b)) in
  let bad b = Alcotest.(check bool) "invalid" true (Result.is_error (Behavior.validate b)) in
  ok (Behavior.Bias 0.5);
  bad (Behavior.Bias 1.5);
  bad (Behavior.Loop 0);
  ok (Behavior.Loop 1);
  bad (Behavior.Pattern [||]);
  bad (Behavior.Correlated { bits = 2; table = [| true |]; noise = 0.0 });
  ok (Behavior.Correlated { bits = 2; table = Array.make 4 true; noise = 0.1 });
  bad (Behavior.Markov { p_stay_true = -0.1; p_stay_false = 0.5; init = false })

let test_behavior_determinism () =
  let b = Behavior.Bias 0.5 in
  Alcotest.(check (list bool)) "same seed same stream"
    (drawn b ~n:50 ~seed:123) (drawn b ~n:50 ~seed:123)

(* -- Term ----------------------------------------------------------------- *)

let cond t f = Term.Cond { on_true = t; on_false = f; behavior = Behavior.Bias 0.5 }

let test_successors () =
  Alcotest.(check (list int)) "jump" [ 3 ] (Term.successors (Term.Jump 3));
  Alcotest.(check (list int)) "cond" [ 1; 2 ] (Term.successors (cond 1 2));
  Alcotest.(check (list int)) "cond same target" [ 1 ] (Term.successors (cond 1 1));
  Alcotest.(check (list int)) "switch dedup" [ 1; 2 ]
    (Term.successors (Term.Switch { targets = [| (1, 0.5); (2, 0.3); (1, 0.2) |] }));
  Alcotest.(check (list int)) "call" [ 4 ]
    (Term.successors (Term.Call { callee = 0; next = 4 }));
  Alcotest.(check (list int)) "ret" [] (Term.successors Term.Ret);
  Alcotest.(check (list int)) "halt" [] (Term.successors Term.Halt)

let test_is_branch_site () =
  Alcotest.(check bool) "jump" false (Term.is_branch_site (Term.Jump 0));
  Alcotest.(check bool) "cond" true (Term.is_branch_site (cond 0 1));
  Alcotest.(check bool) "ret" true (Term.is_branch_site Term.Ret);
  Alcotest.(check bool) "halt" false (Term.is_branch_site Term.Halt)

(* -- Proc / Program ------------------------------------------------------- *)

let simple_proc () =
  (* b0 -cond-> b1 / b2 ; b1 -jump-> b2 ; b2 ret *)
  Proc.make ~name:"p"
    [|
      Block.make (cond 1 2);
      Block.make (Term.Jump 2);
      Block.make Term.Ret;
    |]

let test_proc_predecessors () =
  let p = simple_proc () in
  let preds = Proc.predecessors p in
  Alcotest.(check (list int)) "entry preds" [] preds.(0);
  Alcotest.(check (list int)) "b1 preds" [ 0 ] preds.(1);
  Alcotest.(check (list int)) "b2 preds" [ 0; 1 ] preds.(2)

let test_proc_validate_ok () =
  Alcotest.(check bool) "valid" true (Result.is_ok (Proc.validate (simple_proc ())))

let test_proc_validate_out_of_range () =
  let p = Proc.make ~name:"bad" [| Block.make (Term.Jump 5) |] in
  Alcotest.(check bool) "invalid" true (Result.is_error (Proc.validate p))

let test_proc_validate_unreachable () =
  let p =
    Proc.make ~name:"unreach"
      [| Block.make Term.Ret; Block.make Term.Ret |]
  in
  Alcotest.(check bool) "unreachable detected" true (Result.is_error (Proc.validate p))

let test_proc_validate_bad_behavior () =
  let p =
    Proc.make ~name:"badb"
      [|
        Block.make (Term.Cond { on_true = 1; on_false = 1; behavior = Behavior.Loop 0 });
        Block.make Term.Ret;
      |]
  in
  Alcotest.(check bool) "bad behaviour detected" true (Result.is_error (Proc.validate p))

let test_proc_empty () =
  Alcotest.check_raises "empty proc" (Invalid_argument "Proc.make: empty procedure")
    (fun () -> ignore (Proc.make ~name:"e" [||]))

let test_program_validate () =
  let leaf = Proc.make ~name:"leaf" [| Block.make Term.Ret |] in
  let main =
    Proc.make ~name:"main"
      [|
        Block.make (Term.Call { callee = 1; next = 1 });
        Block.make Term.Halt;
      |]
  in
  let prog = Program.make ~name:"prog" [| main; leaf |] in
  Alcotest.(check bool) "valid program" true (Result.is_ok (Program.validate prog))

let test_program_validate_bad_callee () =
  let main =
    Proc.make ~name:"main"
      [| Block.make (Term.Call { callee = 9; next = 1 }); Block.make Term.Halt |]
  in
  let prog = Program.make ~name:"prog" [| main |] in
  Alcotest.(check bool) "bad callee" true (Result.is_error (Program.validate prog))

let test_program_validate_halt_outside_main () =
  let other = Proc.make ~name:"other" [| Block.make Term.Halt |] in
  let main =
    Proc.make ~name:"main"
      [| Block.make (Term.Call { callee = 1; next = 1 }); Block.make Term.Halt |]
  in
  let prog = Program.make ~name:"prog" [| main; other |] in
  Alcotest.(check bool) "halt outside main" true (Result.is_error (Program.validate prog))

let test_program_accessors () =
  let leaf = Proc.make ~name:"leaf" [| Block.make Term.Ret |] in
  let main =
    Proc.make ~name:"main"
      [| Block.make (cond 1 1); Block.make Term.Halt |]
  in
  let prog = Program.make ~name:"prog" ~seed:99 [| main; leaf |] in
  Alcotest.(check int) "n_procs" 2 (Program.n_procs prog);
  Alcotest.(check int) "total blocks" 3 (Program.total_blocks prog);
  Alcotest.(check int) "seed" 99 prog.Program.seed;
  Alcotest.(check (list (pair int int))) "cond sites" [ (0, 0) ]
    (Program.conditional_sites prog)

let test_block_negative_insns () =
  Alcotest.check_raises "zero insns"
    (Invalid_argument "Block.make: instruction count must be positive") (fun () ->
      ignore (Block.make ~insns:0 Term.Ret))

let test_cond_equal_targets_rejected () =
  let p =
    Proc.make ~name:"eq"
      [|
        Block.make (Term.Cond { on_true = 1; on_false = 1; behavior = Behavior.Bias 0.5 });
        Block.make Term.Ret;
      |]
  in
  Alcotest.(check bool) "equal cond targets rejected" true
    (Result.is_error (Proc.validate p))

(* -- QCheck --------------------------------------------------------------- *)

let behavior_gen =
  let open QCheck.Gen in
  oneof
    [
      map (fun b -> Behavior.Always b) bool;
      map (fun p -> Behavior.Bias p) (float_bound_inclusive 1.0);
      map (fun n -> Behavior.Loop n) (int_range 1 64);
      map (fun l -> Behavior.Pattern (Array.of_list l)) (list_size (int_range 1 12) bool);
      map2
        (fun p q -> Behavior.Markov { p_stay_true = p; p_stay_false = q; init = false })
        (float_bound_inclusive 1.0) (float_bound_inclusive 1.0);
    ]

let behavior_arb = QCheck.make ~print:(Fmt.to_to_string Behavior.pp) behavior_gen

(* How far the rate of [n] draws may stray from [mean_rate].  Every
   behaviour but a Markov chain mixes within a few draws, so 0.05 is
   generous.  A chain that switches state with total probability
   s = leave_true + leave_false holds each state ~1/s draws, so [n] draws
   see only ~n*s/2 cycles: the rate's standard deviation is
   sqrt (pi (1 - pi) (2 - s) / (s n)) around the stationary rate pi, and
   starting in [init] biases it by at most 1/(s n).  The tolerance allows
   six deviations plus that bias, so a sticky chain (tt=0.994, ff=0.990:
   ~110 cycles in 30,000 draws) is held to what its draws can show. *)
let rate_tolerance b ~n =
  match b with
  | Behavior.Markov { p_stay_true; p_stay_false; _ } ->
    let s = 2.0 -. p_stay_true -. p_stay_false in
    if s = 0.0 then 0.05
    else begin
      let pi = Behavior.mean_rate b and n = float_of_int n in
      let sd = sqrt (pi *. (1.0 -. pi) *. (2.0 -. s) /. (s *. n)) in
      Float.max 0.05 ((6.0 *. sd) +. (1.0 /. (s *. n)))
    end
  | Behavior.Always _ | Behavior.Bias _ | Behavior.Loop _ | Behavior.Pattern _
  | Behavior.Correlated _ ->
    0.05

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~name:"generated behaviours validate" ~count:300 behavior_arb
      (fun b -> Result.is_ok (Behavior.validate b));
    Test.make ~name:"mean_rate in [0,1]" ~count:300 behavior_arb (fun b ->
        let r = Behavior.mean_rate b in
        r >= 0.0 && r <= 1.0);
    Test.make ~name:"empirical rate tracks mean_rate" ~count:40
      (pair behavior_arb small_int)
      (fun (b, seed) ->
        (* Correlated excluded by the generator; all others have an exact
           long-run rate. *)
        let n = 30_000 in
        let xs = drawn b ~n ~seed in
        abs_float (rate xs -. Behavior.mean_rate b) < rate_tolerance b ~n);
  ]

let suites =
  [
    ( "ir.behavior",
      [
        Alcotest.test_case "always" `Quick test_always;
        Alcotest.test_case "bias rate" `Quick test_bias_rate;
        Alcotest.test_case "loop shape" `Quick test_loop_shape;
        Alcotest.test_case "loop 1" `Quick test_loop_one;
        Alcotest.test_case "pattern" `Quick test_pattern;
        Alcotest.test_case "correlated history" `Quick test_correlated_follows_history;
        Alcotest.test_case "correlated noise" `Quick test_correlated_noise;
        Alcotest.test_case "markov runs" `Quick test_markov_runs;
        Alcotest.test_case "markov stationary" `Quick test_markov_stationary;
        Alcotest.test_case "mean_rate" `Quick test_mean_rate;
        Alcotest.test_case "validate" `Quick test_behavior_validate;
        Alcotest.test_case "determinism" `Quick test_behavior_determinism;
      ] );
    ( "ir.term",
      [
        Alcotest.test_case "successors" `Quick test_successors;
        Alcotest.test_case "is_branch_site" `Quick test_is_branch_site;
      ] );
    ( "ir.proc",
      [
        Alcotest.test_case "predecessors" `Quick test_proc_predecessors;
        Alcotest.test_case "validate ok" `Quick test_proc_validate_ok;
        Alcotest.test_case "validate out of range" `Quick test_proc_validate_out_of_range;
        Alcotest.test_case "validate unreachable" `Quick test_proc_validate_unreachable;
        Alcotest.test_case "validate bad behaviour" `Quick test_proc_validate_bad_behavior;
        Alcotest.test_case "empty proc" `Quick test_proc_empty;
        Alcotest.test_case "zero insns" `Quick test_block_negative_insns;
        Alcotest.test_case "equal cond targets" `Quick test_cond_equal_targets_rejected;
      ] );
    ( "ir.program",
      [
        Alcotest.test_case "validate" `Quick test_program_validate;
        Alcotest.test_case "bad callee" `Quick test_program_validate_bad_callee;
        Alcotest.test_case "halt outside main" `Quick test_program_validate_halt_outside_main;
        Alcotest.test_case "accessors" `Quick test_program_accessors;
      ] );
    ("ir.properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
  ]
