open Ba_layout
open Ba_core

(* Simulated annealing over the local move vocabulary ({!Move}), priced
   incrementally by {!Model}.  Everything is a pure function of (seed,
   profile): the PRNG is an explicit splitmix64 stream seeded from the
   user seed and the procedure id, the schedule is fixed, and no wall
   clock or global randomness is consulted — so the result is
   byte-identical at any [-j] and across runs.

   The walk starts from the Greedy layout and the best-seen layout is
   returned, so under the chosen cost model annealing is never worse than
   Greedy. *)

module Rng = struct
  type t = { mutable s : int64 }

  let golden = 0x9E3779B97F4A7C15L

  let create seed = { s = Int64.of_int seed }

  let next t =
    t.s <- Int64.add t.s golden;
    let z = t.s in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  (* uniform int in [0, n), n > 0 (modulo bias is irrelevant here) *)
  let int t n = Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int n))

  (* uniform float in [0, 1) from the top 53 bits *)
  let float t =
    Int64.to_float (Int64.shift_right_logical (next t) 11) *. (1.0 /. 9007199254740992.0)
end

let default_sweeps = 8

let align_proc ?(seed = 0) ?(sweeps = default_sweeps) ~arch
    ?(table = Cost_model.default_table) profile pid =
  let program = Ba_cfg.Profile.program profile in
  let proc = Ba_ir.Program.proc program pid in
  let start = Align.align_proc Align.Greedy ~arch ~table profile pid in
  let n = Ba_ir.Proc.n_blocks proc in
  let conds =
    Array.of_list
      (List.filter
         (fun b ->
           match (Ba_ir.Proc.block proc b).Ba_ir.Block.term with
           | Ba_ir.Term.Cond _ -> true
           | _ -> false)
         (List.init n Fun.id))
  in
  if n <= 2 && Array.length conds = 0 then start
  else begin
    let visits b = Ba_cfg.Profile.visits profile pid b in
    let cond_counts b = Ba_cfg.Profile.cond_counts profile pid b in
    let model = Model.create ~arch ~table ~visits ~cond_counts proc start in
    (* one independent stream per (seed, procedure): procedure order and
       scheduling cannot perturb each other's walks *)
    let rng = Rng.create ((seed * 0x1000193) lxor (pid * 0x01000193) lxor 0x5DEECE66) in
    let best = ref (Model.decision model) in
    let best_cost = ref (Model.total model) in
    let cur_cost = ref !best_cost in
    let legs =
      [| None; Some Decision.Jump_on_true; Some Decision.Jump_on_false |]
    in
    let n_swaps = max 0 (n - 2) in
    let iters = sweeps * (n_swaps + (3 * Array.length conds)) in
    if iters > 0 then begin
      let t0 = 1.0 +. (!best_cost /. 8.0) in
      let t_min = 0.01 in
      let alpha = (t_min /. t0) ** (1.0 /. float_of_int iters) in
      let temp = ref t0 in
      for _ = 1 to iters do
        let mv =
          let n_conds = Array.length conds in
          let pick_force = n_conds > 0 && (n_swaps = 0 || Rng.int rng 4 = 0) in
          if pick_force then
            Move.Force (conds.(Rng.int rng n_conds), legs.(Rng.int rng 3))
          else Move.Swap (1 + Rng.int rng n_swaps)
        in
        let d = Model.delta model mv in
        let accept = d <= 0.0 || Rng.float rng < exp (-.d /. !temp) in
        if accept then begin
          Model.commit model mv;
          (* re-read the exact total: accumulating deltas would drift *)
          cur_cost := Model.total model;
          if !cur_cost < !best_cost then begin
            best_cost := !cur_cost;
            best := Model.decision model
          end
        end;
        temp := !temp *. alpha
      done
    end;
    !best
  end

let align_program ?seed ?sweeps ~arch ?table profile =
  let program = Ba_cfg.Profile.program profile in
  Array.init (Ba_ir.Program.n_procs program) (fun pid ->
      align_proc ?seed ?sweeps ~arch ?table profile pid)
