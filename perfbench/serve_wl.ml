(* The serve-hit workload: a `branch_align serve -j 1` child process driven
   by the closed-loop load generator, which sends the request round, in a
   seeded order, again and again.  Set-up warms the server's trace cache,
   so every timed request is served from it. *)

open Perfbench
module Json = Ba_util.Json
module Profiled = Ba_workloads.Profiled
module Protocol = Ba_serve.Protocol
module Spec = Ba_workloads.Spec

(* The load generator keeps one request in flight, so latency measures
   service, not queueing behind another request, and the load generator
   and the server never want more processors than a 2-vCPU host has.  The
   server runs on one domain: at -j 2 its second domain is woken for every
   request, and the host's scheduling noise on that wake-up widened the
   run-to-run spread of every figure several times over. *)
let jobs = 1

(* Set-up runs this many times; the last server stays up to be measured. *)
let setups = 21

(* Whole rounds run until the run's seconds have been measured, and at
   least this many, so that each request's median is over several rounds. *)
let min_rounds = 3

(* A reply later than this after its request counts as unanswered. *)
let timeout_s = 30.0

type server = { child : Child.t; fd : Unix.file_descr }

let close s =
  Child.close_quietly s.fd;
  Child.stop s.child

let check expected (r : Reqtable.req) ~id payload =
  Expected.check expected ~key:(Reqtable.key r) ~verify:(Reqtable.is_verify r) ~id payload

(* The warm-up: one request per program records every trace. *)
let warm_up =
  Array.of_list
    (List.map
       (fun workload -> { Reqtable.kind = "align"; workload; algo = "orig"; arch = "fallthrough" })
       (Reqtable.programs ()))

let drive ~fd ~expected ~limit ?on_ok req =
  Loadgen.run ~fd ~limit ~timeout_s
    ~frame:(fun i -> Reqtable.frame ~id:(Reqtable.id_of_index i) (req i))
    ~check:(fun i payload ->
      let id = Reqtable.id_of_index i in
      let verdict = check expected (req i) ~id payload in
      (match (verdict, on_ok) with
      | Ok (), Some f -> f i (Option.get (Expected.response_digest ~id payload))
      | _ -> ());
      verdict)

(* Spawn, wait for the first pong and warm the cache.  Returns the server
   and the time it took. *)
let start expected =
  let t0 = Clock.now () in
  let child = Child.start [ "-j"; string_of_int jobs ] in
  match
    let fd = Child.wait_ready child ~timeout:60.0 in
    let s = { child; fd } in
    let o = drive ~fd ~expected ~limit:(Array.length warm_up) (Array.get warm_up) in
    if o.failed > 0 then failwith ("warm-up failed: " ^ String.concat "; " o.failures);
    s
  with
  | s -> (s, Clock.now () -. t0)
  | exception e ->
    Child.stop child;
    raise e

type stats = {
  served : int;
  overloaded : int;
  batches : int;
  queue_p50_us : int;
  queue_p95_us : int;
  service_p50_us : int;
  service_p95_us : int;
  hits : int;
  misses : int;
}

(* The server's own accounting, from its public metrics request. *)
let server_stats fd =
  Protocol.write_request fd (Protocol.request ~id:0 Protocol.Metrics);
  let j =
    match Option.map Json.parse (Protocol.read_frame fd) with
    | Some (Ok j) -> j
    | Some (Error e) -> failwith ("malformed metrics response: " ^ e)
    | None -> failwith "the server closed the connection before answering metrics"
  in
  let int path =
    match
      Option.bind
        (List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path)
        Json.to_int_opt
    with
    | Some v -> v
    | None -> failwith ("metrics response lacks " ^ String.concat "." path)
  in
  let server k = int ("body" :: "server" :: k) in
  {
    served = server [ "served" ];
    overloaded = server [ "overloaded" ];
    batches = server [ "batches" ];
    queue_p50_us = server [ "queue_wait"; "p50_us" ];
    queue_p95_us = server [ "queue_wait"; "p95_us" ];
    service_p50_us = server [ "service"; "p50_us" ];
    service_p95_us = server [ "service"; "p95_us" ];
    hits = server [ "cache"; "hits" ];
    misses = server [ "cache"; "misses" ];
  }

let decode frame =
  let f = Protocol.Framer.create () in
  (match Protocol.Framer.feed f (Bytes.unsafe_of_string frame) 0 (String.length frame) with
  | Ok () -> ()
  | Error e -> failwith e);
  match Option.map Json.parse (Protocol.Framer.next f) with
  | Some (Ok j) -> (
    match Protocol.request_of_json j with Ok r -> r | Error e -> failwith e)
  | Some (Error e) -> failwith e
  | None -> failwith "incomplete frame"

let encode resp = Protocol.frame (Json.to_string (Protocol.response_to_json resp))

(* The cache state the server had at the start of the timed window. *)
let prepare_cache () =
  Profiled.clear ();
  Array.iter
    (fun (r : Reqtable.req) ->
      ignore (Profiled.get_traced ~max_steps:Reqtable.max_steps (Option.get (Spec.by_name r.workload))))
    warm_up

(* The traced run's in-process passes over the round, on this one domain:
   the real handler untraced, then the traced copy.  Both must answer
   exactly what the server sent. *)
let in_process ~seed ~expected ~served round =
  let n = Array.length round in
  let frames = Array.mapi (fun i r -> Reqtable.frame ~id:(Reqtable.id_of_index i) r) round in
  let payload framed = String.sub framed 4 (String.length framed - 4) in
  prepare_cache ();
  let t0 = Clock.now () in
  let plain = Array.map (fun fr -> encode (Ba_serve.Handler.handle (decode fr))) frames in
  let untraced_s = Clock.now () -. t0 in
  prepare_cache ();
  let (traced, traced_s), t =
    Output.trace (fun () ->
        let t0 = Clock.now () in
        let out =
          Array.mapi
            (fun i fr ->
              Spans.request i "request" (fun () ->
                  let r = Spans.with_ "serve.decode" (fun () -> decode fr) in
                  let resp = Spans.with_ "serve.handler" (fun () -> Replica.handle r) in
                  Spans.with_ "serve.encode" (fun () -> encode resp)))
            frames
        in
        (out, Clock.now () -. t0))
  in
  Spans.write t.Output.spans (Output.spans_file ~workload:"serve-hit" ~seed);
  let failures = ref [] in
  let judge what i framed =
    let id = Reqtable.id_of_index i in
    let p = payload framed in
    match check expected round.(i) ~id p with
    | Error e -> failures := Printf.sprintf "%s request %d: %s" what i e :: !failures
    | Ok () ->
      if served.(i) <> Expected.response_digest ~id p then
        failures := Printf.sprintf "%s request %d: differs from the server's reply" what i :: !failures
  in
  Array.iteri (judge "in-process") plain;
  Array.iteri (judge "traced") traced;
  (t, Output.overhead_pct ~traced_s ~untraced_s, List.rev !failures, 2 * n)

(* The timed window: whole rounds until [seconds] have been measured, and
   at least [min_rounds], stopping after a round with a failure.  Returns
   every round's outcome, latest first, and each request's median latency
   over the rounds it succeeded in ([infinity] if none).  [served.(i)] is
   set to the digest of request [i]'s reply. *)
let timed ~fd ~expected ~seconds ~served round =
  let latencies = Array.make (Array.length round) [] in
  let t_start = Clock.now () in
  let rec go acc =
    let o =
      drive ~fd ~expected ~limit:(Array.length round)
        ~on_ok:(fun i d -> served.(i) <- Some d)
        (Array.get round)
    in
    List.iter (fun (i, lat) -> latencies.(i) <- lat :: latencies.(i)) o.samples;
    let acc = o :: acc in
    if o.failed > 0 || (List.length acc >= min_rounds && Clock.now () -. t_start >= seconds) then acc
    else go acc
  in
  let rounds = go [] in
  (rounds, Array.map (function [] -> infinity | l -> Pct.median l) latencies)

let ms_of_us us = float_of_int us /. 1000.0

let sum = Array.fold_left ( +. ) 0.0

let run ~seed ~seconds ~trace =
  let host0 = Procfs.host () in
  let expected = Expected.load Expected.path in
  let rec setup k times prev =
    Option.iter close prev;
    let s, dt = start expected in
    if k = 1 then (s, dt :: times) else setup (k - 1) (dt :: times) (Some s)
  in
  let server, setup_times = setup setups [] None in
  let round = Reqtable.round ~seed in
  let served = Array.make (Array.length round) None in
  let rounds, typical, before, after, cpu_s, rss =
    Fun.protect
      ~finally:(fun () -> close server)
      (fun () ->
        let before = server_stats server.fd in
        let cpu0 = Procfs.cpu_seconds server.child.pid in
        let rounds, typical = timed ~fd:server.fd ~expected ~seconds ~served round in
        let cpu1 = Procfs.cpu_seconds server.child.pid in
        let after = server_stats server.fd in
        let rss = Procfs.peak_rss_mb (string_of_int server.child.pid) in
        (rounds, typical, before, after, cpu1 -. cpu0, rss))
  in
  Output.rounds
    (List.filter_map
       (fun (o : Loadgen.outcome) ->
         if o.samples = [] then None
         else
           Some
             (float_of_int (List.length o.samples)
             /. List.fold_left (fun t (_, lat) -> t +. lat) 0.0 o.samples))
       rounds);
  (* Each request's latency is its median over the rounds: a burst of
     interference from other tenants of the host that slows fewer than half
     of a request's rounds does not move it. *)
  let failures = List.concat_map (fun (o : Loadgen.outcome) -> o.failures) (List.rev rounds) in
  let good =
    List.filter (fun (_, lat) -> lat < infinity) (List.mapi (fun i l -> (i, l)) (Array.to_list typical))
  in
  if good = [] then failwith ("no request succeeded: " ^ String.concat "; " failures);
  let latencies kind =
    List.filter_map (fun (i, lat) -> if kind = "" || round.(i).kind = kind then Some lat else None) good
  in
  (* Each branch returns its metrics, its failures and the operations it
     checked beyond the timed window's. *)
  let values, bad, checked =
    if not trace then begin
      (* Layout quality at the serving budget, in this process once the
         server has gone. *)
      Profiled.clear ();
      let evals = List.map (Ba_report.Harness.evaluate ~max_steps:Reqtable.max_steps) Spec.all in
      let all = latencies "" in
      ( [
          ("throughput_rps", float_of_int (List.length all) /. sum (Array.of_list all));
          ("latency_p50_ms", 1000.0 *. Pct.of_list 0.5 all);
          ("latency_p90_ms", 1000.0 *. Pct.of_list 0.9 all);
          ("setup_s", Pct.median setup_times);
          ("peak_rss_mb", rss);
        ]
        @ Replica.rel_cpis evals,
        Replica.check_evals expected ~max_steps:Reqtable.max_steps evals,
        List.length evals + 1 )
    end
    else begin
      let t, overhead_pct, bad, checked = in_process ~seed ~expected ~served round in
      (* The metrics requests themselves are one served request and one
         batch each. *)
      let served_n = after.served - before.served - 1 in
      let batches = after.batches - before.batches - 1 in
      let hits = after.hits - before.hits and misses = after.misses - before.misses in
      let kind_p50 kind =
        match latencies kind with [] -> 0.0 | l -> 1000.0 *. Pct.of_list 0.5 l
      in
      ( Output.traced_metrics t ~overhead_pct
        @ [
            ("serve.queue_wait_p50_ms", ms_of_us after.queue_p50_us);
            ("serve.queue_wait_p95_ms", ms_of_us after.queue_p95_us);
            ("serve.service_p50_ms", ms_of_us after.service_p50_us);
            ("serve.service_p95_ms", ms_of_us after.service_p95_us);
            ("serve.batch_mean", float_of_int served_n /. float_of_int (max 1 batches));
            ("serve.overloaded", float_of_int (after.overloaded - before.overloaded));
            ("serve.cpu_ms_per_req", 1000.0 *. cpu_s /. float_of_int (max 1 served_n));
            ("serve.align.p50_ms", kind_p50 "align");
            ("serve.simulate.p50_ms", kind_p50 "simulate");
            ("serve.verify.p50_ms", kind_p50 "verify");
            ("serve.analyze.p50_ms", kind_p50 "analyze");
            ( "par.lru.hit_ratio",
              if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses) );
          ],
        bad,
        checked )
    end
  in
  let steal_pct = Procfs.steal_pct host0 (Procfs.host ()) in
  Output.noise ~steal_pct;
  let declared, values =
    if trace then (Metrics.per_layer, values @ [ ("host.steal_pct", steal_pct) ])
    else (Metrics.end_to_end, values)
  in
  let sum_int f = List.fold_left (fun n o -> n + f o) 0 rounds in
  let failed = sum_int (fun o -> o.Loadgen.failed) + List.length bad in
  Output.result ~declared ~correct:(failed = 0)
    ~attempted:(sum_int (fun o -> o.Loadgen.attempted) + checked)
    ~failed
    ~failures:(failures @ bad)
    values
