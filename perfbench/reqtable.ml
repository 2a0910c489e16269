(* The request round of the serve workloads.

   A round holds, for each of the four compute kinds and each of the 24
   programs, one request per algorithm that kind accepts, the cost models
   rotating with the program so that every algorithm meets every cost model
   about equally often.  The round is the same for every seed; the seed puts
   it in order.  The load generator sends the same round again and again,
   so every request of it is timed several times.  The generator is the
   benchmark's own SplitMix64, so the order does not move when the
   program's RNG changes. *)

type req = { kind : string; workload : string; algo : string; arch : string }

(* The step budget of every served request: one request then costs about
   0.1-6 ms of compute. *)
let max_steps = 20_000

let kinds = [ "align"; "simulate"; "verify"; "analyze" ]
let archs = [ "fallthrough"; "btfnt"; "likely"; "pht"; "btb" ]
let core_algos = [ "orig"; "greedy"; "cost"; "try15"; "exttsp" ]

(* Only align accepts the annealing search. *)
let algos = function "align" -> core_algos @ [ "anneal" ] | _ -> core_algos

let programs () =
  List.map (fun (w : Ba_workloads.Spec.t) -> w.name) Ba_workloads.Spec.all

let distinct kind =
  Array.of_list
    (List.concat_map
       (fun workload ->
         List.concat_map
           (fun algo -> List.map (fun arch -> { kind; workload; algo; arch }) archs)
           (algos kind))
       (programs ()))

let all_distinct () = Array.concat (List.map distinct kinds)

let key r =
  String.concat "/" [ r.kind; r.workload; r.algo; r.arch; string_of_int max_steps ]

let is_verify r = r.kind = "verify"

let to_request ~id r =
  let kind =
    match Ba_serve.Protocol.kind_of_name r.kind with
    | Ok k -> k
    | Error e -> invalid_arg e
  in
  Ba_serve.Protocol.request ~workload:r.workload ~algo:r.algo ~arch:r.arch
    ~max_steps ~id kind

(* The bytes sent on the wire: a length-prefixed compact JSON frame. *)
let frame ~id r =
  Ba_serve.Protocol.frame
    (Ba_util.Json.to_string (Ba_serve.Protocol.request_to_json (to_request ~id r)))

(* SplitMix64 (Steele, Lea & Flood 2014). *)
type rng = { mutable s : int64 }

let next64 g =
  g.s <- Int64.add g.s 0x9E3779B97F4A7C15L;
  let z = g.s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let below g n = Int64.to_int (Int64.unsigned_rem (next64 g) (Int64.of_int n))

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = below g (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* The ids a run sends: request [i] of a round goes out as id [i + 1]. *)
let id_of_index i = i + 1

(* A copy of [a] in a seeded order. *)
let shuffled ~seed a =
  let a = Array.copy a in
  shuffle { s = Int64.of_int seed } a;
  a

(* The round, in the order of [seed]. *)
let round ~seed =
  let cells =
    List.concat_map
      (fun kind ->
        List.concat
          (List.mapi
             (fun p workload ->
               List.mapi
                 (fun a algo ->
                   { kind; workload; algo; arch = List.nth archs ((a + p) mod List.length archs) })
                 (algos kind))
             (programs ())))
      kinds
  in
  shuffled ~seed (Array.of_list cells)
