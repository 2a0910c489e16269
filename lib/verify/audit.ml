open Ba_ir
open Ba_layout
open Ba_core
open Ba_analysis

(* Reconstruct a decision whose lowering reproduces the given linear code:
   the order is the source permutation, and every conditional that carries
   an inserted jump is pinned to its current jump leg (forcing is idempotent
   where the jump was already demanded by non-adjacency). *)
let canonical_decision (linear : Linear.t) =
  let order = Array.map (fun lb -> lb.Linear.src) linear.Linear.blocks in
  let neither = Array.make (Array.length order) None in
  Array.iter
    (fun (lb : Linear.lblock) ->
      match lb.Linear.term with
      | Linear.Lcond { taken_on; inserted_jump = Some _; _ } ->
        neither.(lb.Linear.src) <-
          Some (if taken_on then Decision.Jump_on_false else Decision.Jump_on_true)
      | _ -> ())
    linear.Linear.blocks;
  Decision.of_order ~neither order

(* A move is a finding when it saves more than this many cycles. *)
let eps = 1e-6

let check ?sim ~arch ?table ~visits ~cond_counts ~proc_id (linear : Linear.t) =
  let p = linear.Linear.proc in
  let proc_name = p.Proc.name in
  let n = Array.length linear.Linear.blocks in
  let base_decision = canonical_decision linear in
  (* Every neighbour differs from the base by one local move, so the whole
     neighbourhood is priced by one Ba_delta.Model over the base: each
     candidate costs a window re-lowering instead of a full [Lower.lower]
     pass.  [Model.preview] is bit-equal to pricing the freshly lowered
     variant, so the findings are identical to the historical
     re-lower-everything auditor. *)
  let model =
    Ba_delta.Model.create ~arch ?table ~visits ~cond_counts p base_decision
  in
  let base = Ba_delta.Model.total model in
  let diags = ref [] in
  let info pos ~rule fmt =
    Printf.ksprintf
      (fun message ->
        diags :=
          { Diagnostic.severity = Diagnostic.Info; rule;
            loc = Diagnostic.Layout_pos { proc = proc_id; proc_name; pos };
            message }
          :: !diags)
      fmt
  in
  let arch_name = Cost_model.arch_name arch in
  (* Simulator-exact saving of the variant, appended to the finding when a
     simulation oracle is given: positive = the trace replay really gets
     cheaper by that many penalty cycles. *)
  let sim_suffix decision =
    match sim with
    | None -> ""
    | Some f -> Printf.sprintf " (simulator: %+d cycles)" (f decision)
  in
  let saving mv = base -. Ba_delta.Model.preview model mv in
  (* Adjacent-chain swaps; position 0 is the pinned entry. *)
  for i = 1 to n - 2 do
    let gain = saving (Ba_delta.Move.Swap i) in
    if gain > eps then
      info i ~rule:"audit/adjacent-swap"
        "swapping positions %d and %d (b%d and b%d) would save %.1f expected %s \
         cycles%s"
        i (i + 1)
        base_decision.Decision.order.(i)
        base_decision.Decision.order.(i + 1)
        gain arch_name
        (sim_suffix (Decision.swap_positions base_decision i (i + 1)))
  done;
  (* Per-conditional lowering moves. *)
  Array.iteri
    (fun pos (lb : Linear.lblock) ->
      let b = lb.Linear.src in
      let try_force ~rule leg message_of =
        let gain = saving (Ba_delta.Move.Force (b, leg)) in
        if gain > eps then begin
          let suffix = sim_suffix (Decision.with_neither base_decision b leg) in
          info pos ~rule "%s" (message_of gain suffix)
        end
      in
      match lb.Linear.term with
      | Linear.Lcond { taken_on; inserted_jump = Some _; _ } ->
        let flipped =
          if taken_on then Decision.Jump_on_true else Decision.Jump_on_false
        in
        try_force ~rule:"audit/jump-leg-flip" (Some flipped) (fun gain suffix ->
            Printf.sprintf
              "routing the %s leg of b%d through its inserted jump instead \
               would save %.1f expected %s cycles%s"
              (if taken_on then "true" else "false")
              b gain arch_name suffix);
        try_force ~rule:"audit/jump-elision" None (fun gain suffix ->
            Printf.sprintf
              "eliding the inserted jump of b%d (aligning one edge) would save \
               %.1f expected %s cycles%s"
              b gain arch_name suffix)
      | Linear.Lcond { inserted_jump = None; _ } ->
        List.iter
          (fun leg ->
            try_force ~rule:"audit/neither-edge" (Some leg) (fun gain suffix ->
                Printf.sprintf
                  "forcing the neither-edge lowering of b%d (jump on the %s \
                   leg) would save %.1f expected %s cycles%s"
                  b (Decision.leg_name leg) gain arch_name suffix))
          [ Decision.Jump_on_true; Decision.Jump_on_false ]
      | _ -> ())
    linear.Linear.blocks;
  Diagnostic.sort !diags
