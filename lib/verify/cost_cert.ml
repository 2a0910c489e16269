open Ba_layout
open Ba_core

let recompute ~arch ?(table = Cost_model.default_table) ~visits ~cond_counts
    (linear : Linear.t) (w : Bisim.witness) =
  let uncond_c = Cost_model.uncond_cost arch table in
  Array.mapi
    (fun pos real ->
      let b = linear.Linear.blocks.(pos).Linear.src in
      let v = float_of_int (visits b) in
      match real with
      | Bisim.W_none -> 0.0
      | Bisim.W_jump -> v *. uncond_c
      | Bisim.W_cond { taken_leg; taken_backward; jump } ->
        let n_true, n_false = cond_counts b in
        let w_taken, w_other =
          if taken_leg then (float_of_int n_true, float_of_int n_false)
          else (float_of_int n_false, float_of_int n_true)
        in
        if jump then
          Cost_model.cond_neither_cost arch table ~w_jump:w_other ~w_taken
            ~taken_backward
        else Cost_model.cond_cost arch table ~w_taken ~w_fall:w_other ~taken_backward
      | Bisim.W_switch -> v *. Cost_model.indirect_cost arch table
      | Bisim.W_call { cont_jump } ->
        (v *. Cost_model.call_cost arch table)
        +. (if cont_jump then v *. uncond_c else 0.0)
      | Bisim.W_vcall { cont_jump } ->
        (v *. Cost_model.indirect_cost arch table)
        +. (if cont_jump then v *. uncond_c else 0.0)
      | Bisim.W_ret -> v *. Cost_model.return_cost table
      | Bisim.W_halt -> v *. table.Cost_model.instruction)
    w.Bisim.reals

(* Relative agreement required per position, above a 1e-6 absolute floor. *)
let tolerance = 1e-9

let certify ~arch ?table ~visits ~cond_counts ~proc_id (linear : Linear.t)
    (w : Bisim.witness) =
  let mine = recompute ~arch ?table ~visits ~cond_counts linear w in
  let theirs = Layout_cost.per_block ~arch ?table ~visits ~cond_counts linear in
  let proc_name = linear.Linear.proc.Ba_ir.Proc.name in
  let diags = ref [] in
  Array.iteri
    (fun pos c ->
      let e = theirs.(pos) in
      let bound = Float.max 1e-6 (tolerance *. Float.max (Float.abs c) (Float.abs e)) in
      if Float.abs (c -. e) > bound then
        diags :=
          Ba_analysis.Diagnostic.make Ba_analysis.Diagnostic.Error
            ~rule:"cert/cost-mismatch"
            ~loc:
              (Ba_analysis.Diagnostic.Layout_pos { proc = proc_id; proc_name; pos })
            "%s: recomputed %.6f cycles for b%d, the evaluator says %.6f"
            (Cost_model.arch_name arch) c
            linear.Linear.blocks.(pos).Linear.src e
          :: !diags)
    mine;
  if !diags = [] then Ok (Array.fold_left ( +. ) 0.0 mine)
  else Error (Ba_analysis.Diagnostic.sort !diags)
