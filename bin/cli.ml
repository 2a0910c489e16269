(* Command-line converters shared by branch_align and experiments. *)

open Cmdliner

(* Counts and budgets: zero, negative and garbage values are usage errors
   (exit 124) with a one-line message.  A zero step budget would print NaN
   ratios, and a server with a zero queue or batch would never answer. *)
let positive =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "must be a positive integer, got '%s'" s))
  in
  Arg.conv (parse, Fmt.int)

(* -j parses like BA_JOBS: a bad job count is an error, never a silent
   default. *)
let jobs =
  let parse s =
    Result.map_error (fun e -> `Msg e) (Ba_par.Pool.jobs_of_string s)
  in
  Arg.conv (parse, Fmt.int)
