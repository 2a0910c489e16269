(* Tests for the serving stack: the wire protocol (framing, JSON parsing,
   request/response round-trips), the sharded compute-once LRU behind
   Ba_workloads.Profiled, trace persistence under concurrent readers, and
   the server itself end to end — including the determinism-under-[-j]
   contract, the overload path, and graceful SIGTERM drain. *)

module P = Ba_serve.Protocol
module Lru = Ba_par.Lru
module J = Ba_util.Json

let wave5 () = Option.get (Ba_workloads.Spec.by_name "wave5")

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)

let test_request_round_trip () =
  let reqs =
    [
      P.request ~id:0 P.Ping;
      P.request ~workload:"wave5" ~algo:"try15" ~arch:"btfnt" ~max_steps:4000
        ~id:7 P.Align;
      P.request ~workload:"gcc" ~id:12345 P.Simulate;
      P.request ~workload:"alvinn" ~algo:"exttsp" ~id:2 P.Verify;
      P.request ~workload:"wave5" ~id:3 P.Analyze;
      P.request ~workload:"wave5" ~id:4 P.Tables;
      P.request ~id:5 P.Metrics;
    ]
  in
  List.iter
    (fun (r : P.request) ->
      let s = J.to_string (P.request_to_json r) in
      match J.parse s with
      | Error e -> Alcotest.fail ("reparse failed: " ^ e)
      | Ok j -> (
        match P.request_of_json j with
        | Error e -> Alcotest.fail ("decode failed: " ^ e)
        | Ok r' ->
          Alcotest.(check bool)
            (Printf.sprintf "request %d round-trips" r.P.id)
            true (r = r')))
    reqs

let test_response_round_trip () =
  let resps =
    [
      { P.rid = 1; status = P.Ok_; body = J.Obj [ ("x", J.Int 3) ] };
      { P.rid = 2; status = P.Error_ "unknown workload \"zzz\""; body = J.Null };
      { P.rid = 3; status = P.Overloaded; body = J.Null };
    ]
  in
  List.iter
    (fun (r : P.response) ->
      let s = J.to_string (P.response_to_json r) in
      match J.parse s with
      | Error e -> Alcotest.fail ("reparse failed: " ^ e)
      | Ok j -> (
        match P.response_of_json j with
        | Error e -> Alcotest.fail ("decode failed: " ^ e)
        | Ok r' ->
          Alcotest.(check bool)
            (Printf.sprintf "response %d round-trips" r.P.rid)
            true (r = r')))
    resps

(* Feeding two frames one byte at a time must yield exactly the two
   payloads, in order — the server's IO loop sees arbitrary read
   boundaries. *)
let test_framer_chunked () =
  let payloads = [ "first payload"; {|{"id":9,"kind":"ping"}|} ] in
  let wire = String.concat "" (List.map P.frame payloads) in
  let f = P.Framer.create () in
  String.iter
    (fun c ->
      match P.Framer.feed f (Bytes.make 1 c) 0 1 with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("feed failed: " ^ e))
    wire;
  List.iter
    (fun expected ->
      match P.Framer.next f with
      | Some got -> Alcotest.(check string) "payload" expected got
      | None -> Alcotest.fail "frame missing")
    payloads;
  Alcotest.(check bool) "drained" true (P.Framer.next f = None)

let test_framer_oversize () =
  let f = P.Framer.create () in
  let header = Bytes.create 4 in
  (* A length just past the cap must poison the connection. *)
  Bytes.set_int32_be header 0 (Int32.of_int (P.max_frame_bytes + 1));
  match P.Framer.feed f header 0 4 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "oversized frame accepted"

let json_gen =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return J.Null;
                 map (fun b -> J.Bool b) bool;
                 map (fun i -> J.Int i) int;
                 map (fun s -> J.String s) (string_size (int_bound 12));
               ]
           in
           if n = 0 then leaf
           else
             oneof
               [
                 leaf;
                 map (fun l -> J.List l) (list_size (int_bound 4) (self (n / 2)));
                 map
                   (fun l -> J.Obj l)
                   (list_size (int_bound 4)
                      (pair (string_size (int_bound 6)) (self (n / 2))));
               ]))

(* Floats are deliberately absent from the generator: the printer's float
   formatting is not round-trip exact, and no protocol field needs it to
   be.  Everything else must survive print -> parse unchanged, including
   arbitrary bytes in strings (the escaper covers control characters and
   the parser decodes \u escapes). *)
let prop_json_round_trip =
  QCheck.Test.make ~count:200 ~name:"Json print/parse round-trip"
    (QCheck.make ~print:(fun j -> J.to_string j) json_gen)
    (fun j -> J.parse (J.to_string j) = Ok j)

(* ------------------------------------------------------------------ *)
(* The sharded LRU                                                     *)

let test_lru_concurrent_compute_once () =
  let calls = Atomic.make 0 in
  let cache = Lru.create ~shards:4 ~name:"t-conc" ~size_of:(fun _ -> 1) () in
  let started = Atomic.make 0 in
  let domains =
    List.init 8 (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr started;
            while Atomic.get started < 8 do
              Domain.cpu_relax ()
            done;
            Lru.get cache ~key:"shared" (fun () ->
                Atomic.incr calls;
                ignore (Unix.select [] [] [] 0.01);
                42)))
  in
  List.iter
    (fun d -> Alcotest.(check int) "shared value" 42 (Domain.join d))
    domains;
  Alcotest.(check int) "exactly one compute" 1 (Atomic.get calls);
  let s = Lru.stats cache in
  Alcotest.(check int) "one miss" 1 s.Lru.misses;
  Alcotest.(check int) "seven hits" 7 s.Lru.hits

(* One shard makes recency fully deterministic: with a 10-byte budget and
   4-byte values, inserting a third value evicts the least recently
   touched — and a hit refreshes recency, so the re-read entry survives. *)
let test_lru_budget_eviction () =
  let cache =
    Lru.create ~shards:1 ~budget_bytes:10 ~name:"t-evict" ~size_of:String.length
      ()
  in
  let get k v = Lru.get cache ~key:k (fun () -> v) in
  Alcotest.(check string) "a" "aaaa" (get "a" "aaaa");
  Alcotest.(check string) "b" "bbbb" (get "b" "bbbb");
  Alcotest.(check string) "a again (hit refreshes)" "aaaa" (get "a" "XXXX");
  Alcotest.(check string) "c evicts the LRU" "cccc" (get "c" "cccc");
  Alcotest.(check bool) "a survives" true (Lru.mem cache "a");
  Alcotest.(check bool) "b evicted" false (Lru.mem cache "b");
  Alcotest.(check bool) "c resident" true (Lru.mem cache "c");
  let s = Lru.stats cache in
  Alcotest.(check int) "one eviction" 1 s.Lru.evictions;
  Alcotest.(check int) "bytes after eviction" 8 s.Lru.bytes;
  Alcotest.(check int) "entries" 2 s.Lru.entries;
  (* Shrinking the budget evicts immediately, oldest first. *)
  Lru.set_budget cache ~bytes:4;
  Alcotest.(check bool) "a evicted by resize" false (Lru.mem cache "a");
  Alcotest.(check bool) "c still resident" true (Lru.mem cache "c");
  Alcotest.(check int) "bytes fit budget" 4 (Lru.stats cache).Lru.bytes

let test_lru_clear () =
  let cache = Lru.create ~shards:2 ~name:"t-clear" ~size_of:(fun _ -> 3) () in
  ignore (Lru.get cache ~key:"k" (fun () -> 1) : int);
  ignore (Lru.get cache ~key:"k" (fun () -> 2) : int);
  Lru.clear cache;
  Alcotest.(check bool) "emptied" false (Lru.mem cache "k");
  let s = Lru.stats cache in
  Alcotest.(check int) "hits reset" 0 s.Lru.hits;
  Alcotest.(check int) "misses reset" 0 s.Lru.misses;
  Alcotest.(check int) "bytes reset" 0 s.Lru.bytes;
  Alcotest.(check int) "recomputes after clear" 9
    (Lru.get cache ~key:"k" (fun () -> 9));
  Alcotest.(check int) "fresh miss" 1 (Lru.stats cache).Lru.misses

let test_lru_failure_not_cached () =
  let cache = Lru.create ~shards:1 ~name:"t-fail" ~size_of:(fun _ -> 1) () in
  (match Lru.get cache ~key:"k" (fun () -> failwith "boom") with
  | (_ : int) -> Alcotest.fail "compute failure swallowed"
  | exception Failure msg -> Alcotest.(check string) "exn propagates" "boom" msg);
  Alcotest.(check bool) "failure not cached" false (Lru.mem cache "k");
  Alcotest.(check int) "next caller recomputes" 5
    (Lru.get cache ~key:"k" (fun () -> 5));
  let s = Lru.stats cache in
  Alcotest.(check int) "both lookups were misses" 2 s.Lru.misses;
  Alcotest.(check int) "no hits" 0 s.Lru.hits

(* Unbounded cache as a pure memo table: for any key sequence, the first
   value stored under a key is the one every later lookup returns,
   whatever shard the key lands on. *)
let prop_lru_round_trip =
  QCheck.Test.make ~count:100 ~name:"Lru round-trips values through shards"
    QCheck.(list (pair (string_of_size (Gen.int_bound 8)) small_int))
    (fun pairs ->
      let cache = Lru.create ~shards:4 ~name:"t-prop" ~size_of:(fun _ -> 8) () in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (k, v) ->
          let expected =
            match Hashtbl.find_opt model k with
            | Some v0 -> v0
            | None ->
              Hashtbl.add model k v;
              v
          in
          Lru.get cache ~key:k (fun () -> v) = expected)
        pairs)

(* ------------------------------------------------------------------ *)
(* Trace persistence and the Profiled record-once contract             *)

let test_trace_concurrent_readers () =
  Ba_workloads.Profiled.clear ();
  let _, _, trace = Ba_workloads.Profiled.get_traced ~max_steps:4000 (wave5 ()) in
  let path = Filename.temp_file "ba-serve-trace" ".bast" in
  Ba_trace.Trace.save ~path ~seed:7 ~max_steps:4000 trace;
  let domains =
    List.init 4 (fun _ -> Domain.spawn (fun () -> Ba_trace.Trace.load ~path))
  in
  List.iter
    (fun d ->
      let f = Domain.join d in
      Alcotest.(check int) "seed" 7 f.Ba_trace.Trace.seed;
      Alcotest.(check int) "max_steps" 4000 f.Ba_trace.Trace.max_steps;
      Alcotest.(check bool) "trace round-trips" true
        (Ba_trace.Trace.equal trace f.Ba_trace.Trace.trace))
    domains;
  Sys.remove path

(* Equal inputs digest to equal cache keys, and equal keys share one trace
   record: two lookups are one interpreter run and one physical trace. *)
let test_equal_digest_shares_record () =
  Alcotest.(check string) "digest is a pure function of the inputs"
    (Ba_workloads.Profiled.key ~name:"wave5" ~max_steps:4000)
    (Ba_workloads.Profiled.key ~name:"wave5" ~max_steps:4000);
  Alcotest.(check bool) "distinct budgets digest apart" false
    (Ba_workloads.Profiled.key ~name:"wave5" ~max_steps:4000
    = Ba_workloads.Profiled.key ~name:"wave5" ~max_steps:4001);
  Ba_workloads.Profiled.clear ();
  let r = Ba_obs.Registry.create () in
  let t1, t2 =
    Ba_obs.Registry.with_registry r (fun () ->
        let _, _, t1 =
          Ba_workloads.Profiled.get_traced ~max_steps:4000 (wave5 ())
        in
        let _, _, t2 =
          Ba_workloads.Profiled.get_traced ~max_steps:4000 (wave5 ())
        in
        (t1, t2))
  in
  Alcotest.(check bool) "one shared trace record" true (t1 == t2);
  Alcotest.(check int) "one interpreter run" 1
    (Ba_obs.Registry.counter_value r "exec.engine.runs")

let test_histogram_quantile () =
  let r = Ba_obs.Registry.create () in
  Ba_obs.Registry.with_registry r (fun () ->
      let h = Ba_obs.Histogram.make ~unit_:"us" "test.serve.quantile" in
      for v = 1 to 100 do
        Ba_obs.Histogram.observe h v
      done);
  (match Ba_obs.Registry.histogram_snapshot r "test.serve.quantile" with
  | None -> Alcotest.fail "histogram missing"
  | Some snap ->
    Alcotest.(check (option int)) "q=1.0 is the exact max" (Some 100)
      (Ba_obs.Histogram.quantile snap 1.0);
    (match Ba_obs.Histogram.quantile snap 0.5 with
    | Some v ->
      Alcotest.(check bool)
        (Printf.sprintf "p50 bucket bound %d covers the median" v)
        true
        (v >= 50 && v <= 100)
    | None -> Alcotest.fail "p50 missing"));
  let empty =
    {
      Ba_obs.Registry.bounds = [| 10; 100 |];
      counts = [| 0; 0; 0 |];
      total = 0;
      sum = 0;
      max_value = min_int;
    }
  in
  Alcotest.(check (option int)) "empty snapshot" None
    (Ba_obs.Histogram.quantile empty 0.5)

(* ------------------------------------------------------------------ *)
(* The handler                                                         *)

(* Every compute kind takes the annealing search, verify included: it
   proves the annealed layout and certifies it on every cost model.
   Simulate and align score the same annealed layout, so simulate's
   BTB-256/4 row carries align's exact penalty cycles. *)
let test_handler_anneal () =
  let call kind =
    Ba_serve.Handler.handle
      (P.request ~workload:"eqntott" ~algo:"Anneal" ~arch:"btb"
         ~max_steps:4000 ~id:1 kind)
  in
  let bodies =
    List.map
      (fun (name, kind) ->
        let r = call kind in
        Alcotest.(check bool) (name ^ " ok") true (r.P.status = P.Ok_);
        Alcotest.(check (option string))
          (name ^ " names anneal") (Some "anneal")
          (Option.bind (J.member "algo" r.P.body) J.to_string_opt);
        r.P.body)
      [
        ("align", P.Align); ("simulate", P.Simulate); ("analyze", P.Analyze);
        ("verify", P.Verify);
      ]
  in
  let verify = List.nth bodies 3 in
  Alcotest.(check bool) "verify proves anneal" true
    (J.member "verified" verify = Some (J.Bool true));
  Alcotest.(check int) "one certificate per cost model"
    (List.length Ba_core.Cost_model.all_arches)
    (match J.member "certificates" verify with
    | Some (J.List cs) -> List.length cs
    | _ -> 0);
  let int_of name j = Option.bind (J.member name j) J.to_int_opt in
  let btb256 =
    match J.member "architectures" (List.nth bodies 1) with
    | Some (J.List archs) ->
      List.find_map
        (fun a ->
          if Option.bind (J.member "label" a) J.to_string_opt = Some "BTB-256/4"
          then int_of "bep_cycles" a
          else None)
        archs
    | _ -> None
  in
  Alcotest.(check (option int)) "simulate's BTB-256/4 = align's penalty"
    (int_of "penalty_cycles" (List.hd bodies))
    btb256

(* ------------------------------------------------------------------ *)
(* The server, end to end                                              *)

let socket_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "/tmp/ba-ts-%d-%d.sock" (Unix.getpid ()) !n

let start_server ?(jobs = 2) ?(queue_len = 256) ?(batch_max = 64)
    ?(install_signals = false) () =
  let sock = socket_path () in
  let cfg =
    {
      (Ba_serve.Server.default_config ~socket_path:sock) with
      jobs = Some jobs;
      queue_len;
      batch_max;
      install_signals;
    }
  in
  (sock, Ba_serve.Server.start cfg)

let test_server_ping_align_metrics () =
  let sock, h = start_server () in
  let cl = Client.connect sock in
  let pong = Client.call cl (P.request ~id:1 P.Ping) in
  Alcotest.(check bool) "ping ok" true (pong.P.status = P.Ok_);
  Alcotest.(check (option int)) "pong body" (Some 1)
    (Option.bind (J.member "pong" pong.P.body) (fun j ->
         match j with J.Bool true -> Some 1 | _ -> None));
  let al =
    Client.call cl
      (P.request ~workload:"wave5" ~algo:"try15" ~arch:"btfnt" ~max_steps:4000
         ~id:2 P.Align)
  in
  Alcotest.(check bool) "align ok" true (al.P.status = P.Ok_);
  Alcotest.(check bool) "align body has total_cost" true
    (J.member "total_cost" al.P.body <> None);
  let m = Client.call cl (P.request ~id:3 P.Metrics) in
  Alcotest.(check bool) "metrics ok" true (m.P.status = P.Ok_);
  (match J.member "server" m.P.body with
  | None -> Alcotest.fail "metrics body lacks server block"
  | Some server ->
    let int_field name =
      Option.bind (J.member name server) J.to_int_opt
    in
    Alcotest.(check bool) "served counted" true
      (match int_field "served" with Some n -> n >= 2 | None -> false);
    Alcotest.(check bool) "service latency summarised" true
      (match J.member "service" server with
      | Some (J.Obj _) -> true
      | _ -> false));
  let bad =
    Client.call cl (P.request ~workload:"no-such" ~id:4 P.Align)
  in
  (match bad.P.status with
  | P.Error_ msg ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
      at 0
    in
    Alcotest.(check bool) "error names the workload" true (contains msg "no-such")
  | _ -> Alcotest.fail "unknown workload must be an error");
  Client.close cl;
  Ba_serve.Server.stop h

(* The determinism wall, through the socket: one mixed request table served
   by three server instances — cold -j1, cold -j4, then -j4 again on the
   warm cache — each driven by two client connections on their own domains,
   pipelining their share.  Every reply must be ok, every body
   byte-identical across the three waves, and the warm wave must be served
   from the trace cache alone: it records no trace.  The table rotates
   kinds, algorithms and cost models over four workloads, then adds the
   annealing search on the kinds that take it besides align. *)
let test_server_jobs_byte_identical () =
  let kinds = [| P.Align; P.Simulate; P.Verify; P.Analyze |] in
  let algos = [| "try15"; "greedy"; "cost"; "exttsp"; "orig" |] in
  let arches = [| "btfnt"; "fallthrough"; "pht" |] in
  let workloads = [| "wave5"; "alvinn"; "eqntott"; "sc" |] in
  let mixed = Array.length kinds * Array.length workloads in
  let annealed = [| (P.Simulate, "eqntott"); (P.Analyze, "sc") |] in
  let n = mixed + Array.length annealed in
  let requests =
    Array.init n (fun id ->
        if id < mixed then
          P.request
            ~workload:workloads.(id / Array.length kinds)
            ~algo:algos.(id mod Array.length algos)
            ~arch:arches.(id mod Array.length arches)
            ~max_steps:4000 ~id
            kinds.(id mod Array.length kinds)
        else
          let kind, workload = annealed.(id - mixed) in
          P.request ~workload ~algo:"anneal" ~arch:"btb" ~max_steps:4000 ~id
            kind)
  in
  let connections = 2 in
  let misses () = (Ba_workloads.Profiled.lru_stats ()).Lru.misses in
  (* One wave: the response bodies by id, and the traces it recorded. *)
  let serve jobs =
    let misses0 = misses () in
    let sock, h = start_server ~jobs () in
    let client c =
      let cl = Client.connect sock in
      let mine =
        List.filter (fun i -> i mod connections = c) (List.init n Fun.id)
      in
      List.iter (fun i -> Client.send cl requests.(i)) mine;
      let replies = List.map (fun _ -> Client.recv cl) mine in
      Client.close cl;
      replies
    in
    let replies =
      List.concat_map Domain.join
        (List.init connections (fun c -> Domain.spawn (fun () -> client c)))
    in
    Ba_serve.Server.stop h;
    let bodies = Array.make n "" in
    List.iter
      (function
        | None -> Alcotest.fail "connection closed mid-batch"
        | Some r ->
          Alcotest.(check bool)
            (Printf.sprintf "request %d ok" r.P.rid)
            true (r.P.status = P.Ok_);
          bodies.(r.P.rid) <- J.to_string r.P.body)
      replies;
    (bodies, misses () - misses0)
  in
  let cold_wave jobs =
    Ba_workloads.Profiled.clear ();
    let bodies, recorded = serve jobs in
    Alcotest.(check int)
      (Printf.sprintf "cold -j%d records each workload once" jobs)
      (Array.length workloads) recorded;
    bodies
  in
  let cold1 = cold_wave 1 in
  let cold4 = cold_wave 4 in
  let warm4, recorded = serve 4 in
  Alcotest.(check int) "warm -j4 records no trace" 0 recorded;
  Array.iteri
    (fun id body ->
      Alcotest.(check bool)
        (Printf.sprintf "request %d answered" id)
        true (body <> "");
      Alcotest.(check string)
        (Printf.sprintf "request %d byte-identical at cold -j4" id)
        body cold4.(id);
      Alcotest.(check string)
        (Printf.sprintf "request %d byte-identical at warm -j4" id)
        body warm4.(id))
    cold1

(* A one-slot admission queue in front of a one-task dispatcher: flooding
   it with pipelined requests must answer every id exactly once, with at
   least one served and at least one rejected as overloaded. *)
let test_server_overload () =
  let n = 30 in
  let sock, h = start_server ~jobs:1 ~queue_len:1 ~batch_max:1 () in
  let cl = Client.connect sock in
  for i = 0 to n - 1 do
    Client.send cl
      (P.request ~workload:"wave5" ~algo:"try15" ~max_steps:4000 ~id:i P.Verify)
  done;
  let seen = Array.make n 0 in
  let ok = ref 0 and overloaded = ref 0 in
  for _ = 1 to n do
    match Client.recv cl with
    | None -> Alcotest.fail "connection closed before all responses"
    | Some r -> (
      seen.(r.P.rid) <- seen.(r.P.rid) + 1;
      match r.P.status with
      | P.Ok_ -> incr ok
      | P.Overloaded -> incr overloaded
      | P.Error_ msg -> Alcotest.fail ("unexpected error: " ^ msg))
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "id %d answered once" i) 1 c)
    seen;
  Alcotest.(check bool) "some requests served" true (!ok >= 1);
  Alcotest.(check bool) "some requests shed" true (!overloaded >= 1);
  Client.close cl;
  Ba_serve.Server.stop h

(* A zero batch never takes from the queue and a zero queue admits
   nothing, so such a server would never answer: start refuses both
   before binding the socket. *)
let test_server_refuses_empty_batch () =
  List.iter
    (fun (what, queue_len, batch_max) ->
      let sock = socket_path () in
      let cfg =
        {
          (Ba_serve.Server.default_config ~socket_path:sock) with
          queue_len;
          batch_max;
          install_signals = false;
        }
      in
      (match Ba_serve.Server.start cfg with
      | h ->
        Ba_serve.Server.stop h;
        Alcotest.failf "%s: server started" what
      | exception Invalid_argument _ -> ());
      Alcotest.(check bool) (what ^ ": no socket bound") false
        (Sys.file_exists sock))
    [ ("batch_max 0", 256, 0); ("queue_len 0", 0, 64) ]

(* SIGTERM must drain: answered work stays answered, the connection sees a
   clean EOF (not a reset), and the socket is unlinked. *)
let test_server_sigterm_drain () =
  let sock, h = start_server ~install_signals:true () in
  let cl = Client.connect sock in
  let pong = Client.call cl (P.request ~id:1 P.Ping) in
  Alcotest.(check bool) "ping before signal" true (pong.P.status = P.Ok_);
  let al =
    Client.call cl
      (P.request ~workload:"wave5" ~max_steps:4000 ~id:2 P.Align)
  in
  Alcotest.(check bool) "align before signal" true (al.P.status = P.Ok_);
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  Alcotest.(check bool) "clean EOF after drain" true
    (Client.recv cl = None);
  Client.close cl;
  Ba_serve.Server.stop h;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists sock)

let suites =
  [
    ( "serve.protocol",
      [
        Alcotest.test_case "request round-trip" `Quick test_request_round_trip;
        Alcotest.test_case "response round-trip" `Quick test_response_round_trip;
        Alcotest.test_case "framer reassembles chunked frames" `Quick
          test_framer_chunked;
        Alcotest.test_case "framer rejects oversized frames" `Quick
          test_framer_oversize;
        QCheck_alcotest.to_alcotest prop_json_round_trip;
      ] );
    ( "serve.lru",
      [
        Alcotest.test_case "concurrent gets share one compute" `Quick
          test_lru_concurrent_compute_once;
        Alcotest.test_case "byte budget evicts LRU-first" `Quick
          test_lru_budget_eviction;
        Alcotest.test_case "clear resets entries and tallies" `Quick
          test_lru_clear;
        Alcotest.test_case "failed computes are not cached" `Quick
          test_lru_failure_not_cached;
        QCheck_alcotest.to_alcotest prop_lru_round_trip;
      ] );
    ( "serve.trace",
      [
        Alcotest.test_case "save/load under concurrent readers" `Quick
          test_trace_concurrent_readers;
        Alcotest.test_case "equal digests share one trace record" `Quick
          test_equal_digest_shares_record;
        Alcotest.test_case "histogram quantile" `Quick test_histogram_quantile;
      ] );
    ( "serve.handler",
      [
        Alcotest.test_case "anneal on every kind" `Quick test_handler_anneal;
      ] );
    ( "serve.server",
      [
        Alcotest.test_case "ping, align, metrics, errors" `Slow
          test_server_ping_align_metrics;
        Alcotest.test_case "-j1 vs -j4 byte-identical" `Slow
          test_server_jobs_byte_identical;
        Alcotest.test_case "overload sheds load" `Slow test_server_overload;
        Alcotest.test_case "start refuses an empty batch" `Quick
          test_server_refuses_empty_batch;
        Alcotest.test_case "SIGTERM drains gracefully" `Slow
          test_server_sigterm_drain;
      ] );
  ]
