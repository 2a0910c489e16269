(* `main.exe bless`: write perfbench/expected.tsv from this checkout.

   Every distinct request of the four compute kinds over the 24 programs
   and every algorithm and cost model, a superset of the serve round, is
   answered by the server under test (through the load generator), by
   [Handler.handle] in this process on one domain, and by the traced copy;
   the three must agree byte for byte, every reply must be ok, and every
   verify reply must say it verified.  The evaluations are computed per program as the reproduce
   workload does, by [Harness.evaluate_suite ~jobs:1] and by the traced
   copy, at the 3M-step budget and at the serving budget; all three must
   agree.  Only then is the file written. *)

open Perfbench
module Harness = Ba_report.Harness
module Json = Ba_util.Json
module Profiled = Ba_workloads.Profiled
module Protocol = Ba_serve.Protocol
module Spec = Ba_workloads.Spec

let payload_digest ~id resp =
  Option.get (Expected.response_digest ~id (Json.to_string (Protocol.response_to_json resp)))

let requests () =
  let reqs = Reqtable.all_distinct () in
  let id = Reqtable.id_of_index in
  Printf.eprintf "bless: %d requests in process\n%!" (Array.length reqs);
  Profiled.clear ();
  let digests =
    Array.mapi
      (fun i r ->
        let resp = Ba_serve.Handler.handle (Reqtable.to_request ~id:(id i) r) in
        (match resp.Protocol.status with
        | Protocol.Ok_ -> ()
        | _ -> failwith (Reqtable.key r ^ ": not ok in process"));
        (Reqtable.key r, payload_digest ~id:(id i) resp))
      reqs
  in
  let expected : Expected.t = Hashtbl.create (Array.length reqs) in
  Array.iter (fun (k, d) -> Hashtbl.replace expected k d) digests;
  Printf.eprintf "bless: the traced copy\n%!";
  Profiled.clear ();
  Array.iteri
    (fun i r ->
      let resp = Replica.handle (Reqtable.to_request ~id:(id i) r) in
      if payload_digest ~id:(id i) resp <> snd digests.(i) then
        failwith (Reqtable.key r ^ ": the traced copy differs from Handler.handle"))
    reqs;
  Printf.eprintf "bless: the server\n%!";
  let server, _ = Serve_wl.start expected in
  let o =
    Fun.protect
      ~finally:(fun () -> Serve_wl.close server)
      (fun () -> Serve_wl.drive ~fd:server.fd ~expected ~limit:(Array.length reqs) (Array.get reqs))
  in
  if o.failed > 0 then failwith ("the server disagrees: " ^ String.concat "; " o.failures);
  Array.to_list digests

let evaluations ~max_steps =
  Printf.eprintf "bless: evaluations at %d steps\n%!" max_steps;
  let digests evals =
    List.map (fun (e : Harness.eval) -> Replica.eval_digest e) evals
    @ [ Expected.digest (Replica.tables evals) ]
  in
  Profiled.clear ();
  let evals = List.map (Harness.evaluate ~max_steps) Spec.all in
  Profiled.clear ();
  let suite = Harness.evaluate_suite ~max_steps ~jobs:1 Spec.all in
  Profiled.clear ();
  let copies = List.map (Replica.evaluate ~max_steps) Spec.all in
  let d = digests evals in
  if digests suite <> d then failwith "Harness.evaluate_suite ~jobs:1 disagrees";
  if digests copies <> d then failwith "the traced copy of Harness.evaluate disagrees";
  List.combine
    (List.map (fun (w : Spec.t) -> Replica.eval_key ~max_steps w.name) Spec.all
    @ [ Replica.tables_key ~max_steps ])
    d

let run () =
  let served = requests () in
  let small = evaluations ~max_steps:Reqtable.max_steps in
  let full = evaluations ~max_steps:Spec.default_max_steps in
  let entries = served @ small @ full in
  Expected.save Expected.path entries;
  Printf.eprintf "bless: wrote %d digests to %s\n%!" (List.length entries) Expected.path;
  0
