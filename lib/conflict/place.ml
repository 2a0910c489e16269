open Ba_ir
open Ba_layout

type result = {
  image : Image.t;
  decisions : Decision.t array;
  pads : int array;
  before : int;
  after : int;
  swaps : int;
}

let objective_of ~suite ~profile image =
  let summary = Site.extract ~profile image in
  Analyze.objective
    (Analyze.of_summary ~suite ~bases:image.Image.bases summary)

(* One greedy pass of adjacent swaps.  A swap must keep the procedure's own
   exact branch cost from rising (the alignment's win is not negotiable)
   and must strictly lower the global conflict objective.  The branch-cost
   guard is priced by [Ba_delta.Model] — one cached lowering per
   procedure, each swap re-priced over its three-position window, bit-equal
   to a fresh lowering priced by [Layout_cost.branch_cost]. *)
let swap_pass ~suite ~arch ~build ~profile program decisions =
  let n = Program.n_procs program in
  let swaps = ref 0 in
  let current_obj =
    ref (objective_of ~suite ~profile (build ?pads:None decisions))
  in
  for p = 0 to n - 1 do
    let len = Proc.n_blocks (Program.proc program p) in
    if len > 2 then begin
      let model =
        Ba_delta.Model.create ~arch
          ~visits:(fun b -> Ba_cfg.Profile.visits profile p b)
          ~cond_counts:(fun b -> Ba_cfg.Profile.cond_counts profile p b)
          (Program.proc program p) decisions.(p)
      in
      for pos = 1 to len - 2 do
        if
          Ba_delta.Model.preview model (Ba_delta.Move.Swap pos)
          <= Ba_delta.Model.total model +. 1e-6
        then begin
          let saved = decisions.(p) in
          decisions.(p) <- Decision.swap_positions decisions.(p) pos (pos + 1);
          let obj = objective_of ~suite ~profile (build ?pads:None decisions) in
          if obj < !current_obj then begin
            current_obj := obj;
            incr swaps;
            Ba_delta.Model.commit model (Ba_delta.Move.Swap pos)
          end
          else decisions.(p) <- saved
        end
      done
    end
  done;
  (!current_obj, !swaps)

(* Greedy pad sweep: procedures in order, each pad chosen to minimise the
   objective given the pads already fixed; ties keep the smaller pad, so a
   layout with nothing to gain keeps all-zero pads.

   The classic layout shifts a procedure's whole body with its base, so
   the site summary is extracted once and only the bases recomputed per
   candidate pad.  A stitched image has no such shortcut — a pad moves the
   hot region, the cold section, and everything placed after either — so
   the interproc path rebuilds the image per candidate (programs are small
   enough that the exact sweep stays cheap). *)
let pad_sweep ~suite ~max_pad ~interproc ~build ~profile program decisions =
  let n = Program.n_procs program in
  let pads = Array.make n 0 in
  let objective =
    if interproc then fun pads ->
      objective_of ~suite ~profile (build ?pads:(Some pads) decisions)
    else begin
      let image = build ?pads:None decisions in
      let summary = Site.extract ~profile image in
      let sizes =
        Array.map (fun linear -> Linear.code_size linear) image.Image.linears
      in
      let bases_for pads =
        let bases = Array.make n 0 in
        let addr = ref 0 in
        for p = 0 to n - 1 do
          addr := !addr + pads.(p);
          bases.(p) <- !addr;
          addr := !addr + sizes.(p)
        done;
        bases
      in
      fun pads ->
        Analyze.objective
          (Analyze.of_summary ~suite ~bases:(bases_for pads) summary)
    end
  in
  for p = 0 to n - 1 do
    let best_pad = ref 0 and best_obj = ref (objective pads) in
    for pad = 1 to max_pad do
      pads.(p) <- pad;
      let obj = objective pads in
      if obj < !best_obj then begin
        best_obj := obj;
        best_pad := pad
      end
    done;
    pads.(p) <- !best_pad
  done;
  pads

let improve ?(suite = Structure.placement_suite)
    ?(arch = Ba_core.Cost_model.Btfnt) ?(max_pad = 32)
    ?(interproc = false) ~profile program decisions =
  Ba_obs.Span.with_ "place" @@ fun () ->
  if Array.length decisions <> Program.n_procs program then
    invalid_arg "Place.improve: one decision per procedure required";
  let decisions = Array.copy decisions in
  let build ?pads decisions =
    if interproc then
      (Image.build_interproc ?pads ~profile program decisions).Image.image
    else Image.build ?pads ~profile program decisions
  in
  let before = objective_of ~suite ~profile (build ?pads:None decisions) in
  let _, swaps = swap_pass ~suite ~arch ~build ~profile program decisions in
  let pads = pad_sweep ~suite ~max_pad ~interproc ~build ~profile program decisions in
  let image = build ~pads decisions in
  let after = objective_of ~suite ~profile image in
  { image; decisions; pads; before; after; swaps }
