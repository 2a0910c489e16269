(* The traced measurements common to every workload, and the result line. *)

open Perfbench

(* What a traced pass measured, common to every workload. *)
type traced = {
  spans : Spans.recorder;
  registry : Ba_obs.Registry.t;
  alloc_words : float;
  minor_collections : int;
  major_collections : int;
}

(* [overhead_pct]: the traced pass's time over the untraced pass's, minus
   one. *)
let traced_metrics t ~overhead_pct =
  List.map (fun (n, span) -> (n, Spans.self_ms t.spans span)) Metrics.span_metrics
  @ List.map (fun (n, span) -> (n, Spans.alloc_mw t.spans span)) Metrics.alloc_metrics
  @ List.map
      (fun n -> (n, float_of_int (Ba_obs.Registry.counter_value t.registry n)))
      Metrics.counter_metrics
  @ [
      ("gc.alloc_mw", t.alloc_words /. 1e6);
      ("gc.minor_collections", float_of_int t.minor_collections);
      ("gc.major_collections", float_of_int t.major_collections);
      ("tracing.overhead_pct", overhead_pct);
    ]

(* Run [f] with spans, a fresh Ba_obs registry and GC accounting on. *)
let trace f =
  let registry = Ba_obs.Registry.create () in
  let words0 = Gc.minor_words () and gc0 = Gc.quick_stat () in
  Spans.start ();
  let result =
    match Ba_obs.Registry.with_registry registry f with
    | r -> r
    | exception e ->
      ignore (Spans.stop ());
      raise e
  in
  let spans = Spans.stop () in
  let gc1 = Gc.quick_stat () in
  ( result,
    {
      spans;
      registry;
      alloc_words = Gc.minor_words () -. words0;
      minor_collections = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
      major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    } )

let overhead_pct ~traced_s ~untraced_s = 100.0 *. ((traced_s /. untraced_s) -. 1.0)

let spans_file ~workload ~seed =
  Printf.sprintf "%s/spans-%s-seed%d.jsonl" Child.out_dir workload seed

(* Steal time and load average, beside every run, to explain outliers. *)
let noise ~steal_pct =
  Printf.printf "noise: host.steal_pct=%.2f loadavg_1m=%.2f\n" steal_pct
    (Procfs.loadavg_1m ())

(* The spread of the rounds behind a run's figures: each round's requests
   over the sum of their latencies. *)
let rounds rates =
  match List.sort Float.compare rates with
  | [] -> ()
  | sorted ->
    Printf.printf "rounds: %d, requests/s min=%.1f median=%.1f max=%.1f\n"
      (List.length sorted) (List.hd sorted) (Pct.median sorted)
      (List.nth sorted (List.length sorted - 1))

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The last line of stdout.  [values] must hold every metric of [declared]. *)
let result ~declared ~correct ~attempted ~failed ~failures values =
  List.iter (prerr_endline) failures;
  let metric (name, unit_) =
    match List.assoc_opt name values with
    | Some v when Float.is_finite v ->
      Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit_
    | Some _ -> failwith ("metric " ^ name ^ " is not a finite number")
    | None -> failwith ("metric " ^ name ^ " was not measured")
  in
  let metrics = String.concat ", " (List.map metric declared) in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed metrics;
  if correct then 0 else 1
