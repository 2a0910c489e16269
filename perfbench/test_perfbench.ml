(* Tests of the benchmark itself: the request round, the percentiles, the
   output check, and the agreement between BENCHMARK.json and the metrics
   main.exe prints. *)

open Perfbench
module Json = Ba_util.Json

let table_bytes ~seed =
  let frames = Array.mapi (fun i r -> Reqtable.frame ~id:(Reqtable.id_of_index i) r) (Reqtable.round ~seed) in
  String.concat "" (Array.to_list frames)

let table_is_a_function_of_the_seed () =
  Alcotest.(check string) "same seed, same bytes" (table_bytes ~seed:7) (table_bytes ~seed:7);
  Alcotest.(check bool) "another seed, another order" false (table_bytes ~seed:7 = table_bytes ~seed:8);
  let set seed = List.sort compare (Array.to_list (Reqtable.round ~seed)) in
  Alcotest.(check bool) "the same requests" true (set 7 = set 8)

let table_covers_every_kind_and_program () =
  let round = Array.to_list (Reqtable.round ~seed:3) in
  List.iter
    (fun kind ->
      List.iter
        (fun p ->
          let algos =
            List.filter_map
              (fun (r : Reqtable.req) -> if r.kind = kind && r.workload = p then Some r.algo else None)
              round
          in
          Alcotest.(check (list string))
            (kind ^ " " ^ p ^ ": one request per algorithm")
            (List.sort compare (Reqtable.algos kind))
            (List.sort compare algos))
        (Reqtable.programs ());
      List.iter
        (fun arch ->
          Alcotest.(check bool) (kind ^ " " ^ arch) true
            (List.exists (fun (r : Reqtable.req) -> r.kind = kind && r.arch = arch) round))
        Reqtable.archs)
    Reqtable.kinds

let sorted l = Array.of_list l

let percentile_single_sample () =
  List.iter
    (fun q -> Alcotest.(check (float 0.0)) "the sample" 42.0 (Pct.nearest_rank [| 42.0 |] q))
    [ 0.01; 0.5; 0.9; 0.99; 1.0 ]

let percentile_ties () =
  let a = sorted [ 1.0; 2.0; 2.0; 2.0; 3.0 ] in
  Alcotest.(check (float 0.0)) "p20" 1.0 (Pct.nearest_rank a 0.2);
  Alcotest.(check (float 0.0)) "p40" 2.0 (Pct.nearest_rank a 0.4);
  Alcotest.(check (float 0.0)) "p50" 2.0 (Pct.nearest_rank a 0.5);
  Alcotest.(check (float 0.0)) "p80" 2.0 (Pct.nearest_rank a 0.8);
  Alcotest.(check (float 0.0)) "p90" 3.0 (Pct.nearest_rank a 0.9);
  let ten = sorted (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 0.0)) "p50 of 1..10" 5.0 (Pct.nearest_rank ten 0.5);
  Alcotest.(check (float 0.0)) "p90 of 1..10" 9.0 (Pct.nearest_rank ten 0.9);
  Alcotest.(check (float 0.0)) "median of unsorted" 3.0 (Pct.median [ 5.0; 3.0; 1.0; 4.0; 2.0 ])

let expected () = Expected.load "expected.tsv"

let every_request_has_an_expected_output () =
  let e = expected () in
  Array.iter
    (fun r ->
      Alcotest.(check bool) (Reqtable.key r) true (Expected.find e (Reqtable.key r) <> None))
    (Reqtable.all_distinct ())

let check_catches_a_flipped_byte () =
  let e = expected () in
  let r = { Reqtable.kind = "verify"; workload = "wave5"; algo = "try15"; arch = "btb" } in
  let id = 17 in
  let resp = Ba_serve.Handler.handle (Reqtable.to_request ~id r) in
  let payload = Json.to_string (Ba_serve.Protocol.response_to_json resp) in
  let check p = Expected.check e ~key:(Reqtable.key r) ~verify:true ~id p in
  Alcotest.(check bool) "the reply matches" true (check payload = Ok ());
  String.iteri
    (fun i c ->
      let flipped = Bytes.of_string payload in
      Bytes.set flipped i (Char.chr (Char.code c lxor 0x01));
      if check (Bytes.to_string flipped) = Ok () then
        Alcotest.failf "a flipped byte at offset %d went unnoticed" i)
    payload

let metrics_match_benchmark_json () =
  let j =
    match Json.parse (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let declared key =
    match Json.member key j with
    | Some (Json.List l) ->
      List.map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.String n), Some (Json.String u) -> (n, u)
          | _ -> Alcotest.fail ("malformed metric in " ^ key))
        l
    | _ -> Alcotest.fail ("BENCHMARK.json lacks " ^ key)
  in
  let pair = Alcotest.(list (pair string string)) in
  Alcotest.check pair "end_to_end" Metrics.end_to_end (declared "end_to_end");
  Alcotest.check pair "per_layer" Metrics.per_layer (declared "per_layer")

let () =
  Alcotest.run "perfbench"
    [
      ( "table",
        [
          Alcotest.test_case "pure function of the seed" `Quick table_is_a_function_of_the_seed;
          Alcotest.test_case "every kind and program" `Quick table_covers_every_kind_and_program;
        ] );
      ( "percentile",
        [
          Alcotest.test_case "single sample" `Quick percentile_single_sample;
          Alcotest.test_case "ties" `Quick percentile_ties;
        ] );
      ( "check",
        [
          Alcotest.test_case "expected outputs complete" `Quick every_request_has_an_expected_output;
          Alcotest.test_case "flipped byte" `Quick check_catches_a_flipped_byte;
        ] );
      ("metrics", [ Alcotest.test_case "match BENCHMARK.json" `Quick metrics_match_benchmark_json ]);
    ]
