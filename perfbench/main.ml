(* The benchmark executable; perfbench/run.py builds it and runs it from the
   checkout root.

     main.exe run --workload W --seed N --seconds S --trace 0|1
     main.exe bless
     main.exe probe --seed N        (reproduce's set-up, timed by run)

   The last line of a run's stdout is its result.  A run exits 1 when any
   output differs from its expected value, and 2 on bad arguments. *)

open Perfbench

exception Interrupted of int

let usage () =
  prerr_endline
    "usage: main.exe run --workload reproduce|serve-hit --seed N \
     --seconds S --trace 0|1\n\
    \       main.exe bless\n\
    \       main.exe probe --seed N";
  2

let options args =
  let rec go acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> go ((k, v) :: acc) rest
    | [] -> Some acc
    | _ -> None
  in
  go [] args

let int_opt opts k = Option.bind (List.assoc_opt k opts) int_of_string_opt

let run args =
  match options args with
  | None -> usage ()
  | Some opts -> (
    match
      ( List.assoc_opt "--workload" opts,
        int_opt opts "--seed",
        int_opt opts "--seconds",
        int_opt opts "--trace" )
    with
    | Some workload, Some seed, Some seconds, Some (0 | 1 as trace) when seconds >= 1 -> (
      let seconds = float_of_int seconds and trace = trace = 1 in
      match workload with
      | "reproduce" -> Reproduce_wl.run ~seed ~seconds ~trace
      | "serve-hit" -> Serve_wl.run ~seed ~seconds ~trace
      | _ -> usage ())
    | _ -> usage ())

let () =
  (* A dead server must surface as EPIPE on write, not kill this process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun signum -> Sys.set_signal signum (Sys.Signal_handle (fun s -> raise (Interrupted s))))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ];
  at_exit Child.stop_all;
  let code =
    try
      match List.tl (Array.to_list Sys.argv) with
      | "run" :: args -> run args
      | [ "probe"; "--seed"; seed ] -> (
        match int_of_string_opt seed with
        | Some seed -> Reproduce_wl.probe ~seed
        | None -> usage ())
      | [ "bless" ] -> Bless.run ()
      | _ -> usage ()
    with
    | Interrupted _ ->
      prerr_endline "perfbench: interrupted";
      130
    | e ->
      Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
      1
  in
  Child.stop_all ();
  exit code
