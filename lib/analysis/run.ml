type stage = Ir | Profile | Decision | Linear | Image | Conflict | Audit | Bound

let stage_name = function
  | Ir -> "ir"
  | Profile -> "profile"
  | Decision -> "decision"
  | Linear -> "linear"
  | Image -> "image"
  | Conflict -> "conflict"
  | Audit -> "audit"
  | Bound -> "bound"

let core_stages = [ Ir; Profile; Decision; Linear; Image ]
let all_stages = core_stages @ [ Conflict; Audit; Bound ]

type report = {
  stages : (stage * Diagnostic.t list) list;
  decisions : Ba_layout.Decision.t array option;
  image : Ba_layout.Image.t option;
}

let diagnostics r = Diagnostic.sort (List.concat_map snd r.stages)

let error_count r =
  let e, _, _ = Diagnostic.count (diagnostics r) in
  e

let ran r stage = List.mem_assoc stage r.stages

let has_errors diags = List.exists Diagnostic.is_error diags

(* Stages 3-5, and the image they lowered when the decisions allowed it. *)
let layout_stages ~profile (program : Ba_ir.Program.t) decisions =
  let n = Ba_ir.Program.n_procs program in
  if Array.length decisions <> n then
    invalid_arg "Run.check_pipeline: one decision per procedure required";
  let decision_diags =
    List.concat
      (List.init n (fun pid ->
           Check_decision.check ~proc_id:pid (Ba_ir.Program.proc program pid)
             decisions.(pid)))
  in
  if has_errors decision_diags then ([ (Decision, decision_diags) ], None)
  else begin
    let image = Ba_layout.Image.build ~profile program decisions in
    let linear_diags =
      List.concat
        (List.init n (fun pid ->
             Check_linear.check ~proc_id:pid image.Ba_layout.Image.linears.(pid)))
    in
    ( [
        (Decision, decision_diags);
        (Linear, linear_diags);
        (Image, Check_image.check image);
      ],
      Some image )
  end

let check_pipeline ~profile ~align (program : Ba_ir.Program.t) =
  if Ba_cfg.Profile.program profile != program then
    invalid_arg "Run.check_pipeline: profile of a different program";
  let ir_diags = Check_ir.check_program program in
  if has_errors ir_diags then
    { stages = [ (Ir, ir_diags) ]; decisions = None; image = None }
  else begin
    let profile_diags = Check_profile.check profile in
    let decisions = align profile in
    let stages, image = layout_stages ~profile program decisions in
    {
      stages = (Ir, ir_diags) :: (Profile, profile_diags) :: stages;
      decisions = Some decisions;
      image;
    }
  end
