(* Expected outputs: one MD5 digest per key, blessed by [main.exe bless].

   Keys are [<kind>/<program>/<algo>/<arch>/<steps>] for served requests and
   [reproduce/<steps>/eval/<program>] or [reproduce/<steps>/tables] for the
   evaluation.  A response payload reads [{"id":N,"status":...,"body":...}];
   the id differs from run to run, so a response's digest covers everything
   after the id. *)

let path = "perfbench/expected.tsv"

type t = (string, string) Hashtbl.t

let digest s = Digest.to_hex (Digest.string s)

let load file : t =
  let t = Hashtbl.create 4096 in
  In_channel.with_open_bin file (fun ic ->
      let rec loop () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
          (match String.index_opt line '\t' with
          | Some i when line <> "" && line.[0] <> '#' ->
            Hashtbl.replace t (String.sub line 0 i)
              (String.sub line (i + 1) (String.length line - i - 1))
          | _ -> ());
          loop ()
      in
      loop ());
  t

let save file entries =
  let entries = List.sort compare entries in
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc
        "# perfbench expected outputs (MD5): written by `main.exe bless`\n";
      List.iter (fun (k, d) -> Printf.fprintf oc "%s\t%s\n" k d) entries)

let find (t : t) key = Hashtbl.find_opt t key

(* The payload after its id, or [None] when the id is not [id]. *)
let after_id ~id payload =
  let prefix = Printf.sprintf "{\"id\":%d," id in
  if String.starts_with ~prefix payload then
    let n = String.length prefix in
    Some (String.sub payload n (String.length payload - n))
  else None

let response_digest ~id payload = Option.map digest (after_id ~id payload)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (from i 0 || at (i + 1))
  and from i j = j = m || (s.[i + j] = sub.[j] && from i (j + 1)) in
  at 0

(* Check one response payload against the expected digest of [key].  Every
   verify body must also say it verified. *)
let check (t : t) ~key ~verify ~id payload =
  match after_id ~id payload with
  | None -> Error "response id differs from the request's"
  | Some rest ->
    if String.starts_with ~prefix:"\"status\":\"overloaded\"" rest then
      Error "overloaded"
    else if not (String.starts_with ~prefix:"\"status\":\"ok\"" rest) then
      Error ("error response: " ^ String.sub rest 0 (min 200 (String.length rest)))
    else if verify && not (contains rest "\"verified\":true") then
      Error "verify body does not say \"verified\":true"
    else (
      match find t key with
      | None -> Error ("no expected output for " ^ key)
      | Some d when d = digest rest -> Ok ()
      | Some _ -> Error ("body differs from the expected output of " ^ key))
