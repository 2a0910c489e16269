type outcome = {
  result : Ba_exec.Engine.result;
  sims : (Bep.arch * Bep.t) array;
  stats : Ba_exec.Trace_stats.t;
}

let simulate ?max_steps ?return_stack_depth ?trace ~archs image =
  Ba_obs.Span.with_ "simulate" @@ fun () ->
  let sims =
    Array.of_list
      (List.map (fun arch -> (arch, Bep.create ?return_stack_depth arch)) archs)
  in
  let n = Array.length sims in
  let stats = Ba_exec.Trace_stats.create () in
  (* one fused dispatch loop over the sim array — no per-event closure list
     walk *)
  let on_event ev =
    Ba_exec.Trace_stats.on_event stats ev;
    for i = 0 to n - 1 do
      Bep.on_event (snd (Array.unsafe_get sims i)) ev
    done
  in
  let result =
    match trace with
    | Some tr -> Ba_trace.Replay.run ~on_event (Ba_trace.Flat.of_image image) tr
    | None -> Ba_exec.Engine.run ?max_steps ~on_event image
  in
  (* The event loop never touches the metrics registry; each simulator's
     books land there in one flush per run. *)
  Array.iter (fun (_, sim) -> Bep.flush_obs sim) sims;
  { result; sims; stats }

let simulate_alpha ?max_steps ?config ?fp_fraction ?trace image =
  let issue =
    match fp_fraction with
    | None -> None
    | Some fp_fraction ->
      Some (Ba_isa.Pairing.prefix_table (Ba_isa.Codegen.of_image ~fp_fraction image))
  in
  let alpha = Alpha.create ?config ?issue () in
  let result =
    match trace with
    | Some tr ->
      Ba_trace.Replay.run ~on_event:(Alpha.on_event alpha)
        ~on_block:(Alpha.on_block alpha)
        (Ba_trace.Flat.of_image image) tr
    | None ->
      Ba_exec.Engine.run ?max_steps ~on_event:(Alpha.on_event alpha)
        ~on_block:(Alpha.on_block alpha) image
  in
  Alpha.flush_obs alpha;
  (result, alpha)
