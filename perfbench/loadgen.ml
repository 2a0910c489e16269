(* The closed-loop load generator: one thread, one connection, one
   outstanding request.  The next request goes out only after the reply to
   the previous one has arrived; there is no think time and no pipelining,
   so the server never holds more than one request. *)

type outcome = {
  attempted : int;
  failed : int;
  failures : string list;  (* the first few reasons, oldest first *)
  samples : (int * float) list;  (* (request index, latency s) of good replies *)
}

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Unix.write fd b !off (Bytes.length b - !off)
  done

(* Wait until [fd] is readable or [deadline] has passed. *)
let rec readable fd ~deadline =
  let left = deadline -. Clock.now () in
  left > 0.0
  &&
  match Unix.select [ fd ] [] [] left with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> readable fd ~deadline

(* Send requests 0, 1, ..., [limit - 1] over [fd], each after the reply to
   the previous one.  A reply that has not arrived [timeout_s] seconds after
   its request counts as unanswered; after that, or after a send or a read
   fails, nothing more is sent.  [frame i] is the wire form of request [i];
   [check i payload] judges its reply. *)
let run ~fd ~limit ~timeout_s ~frame ~check =
  let failed = ref 0 in
  let failures = ref [] in
  let samples = ref [] in
  let fail i reason =
    incr failed;
    if List.length !failures < 5 then failures := Printf.sprintf "request %d: %s" i reason :: !failures;
    i + 1
  in
  (* Returns the number of requests sent. *)
  let rec go i =
    if i = limit then i
    else
      let payload = frame i in
      let t0 = Clock.now () in
      match write_all fd payload with
      | exception Unix.Unix_error (e, _, _) -> fail i ("send failed: " ^ Unix.error_message e)
      | () -> (
        if not (readable fd ~deadline:(t0 +. timeout_s)) then fail i "unanswered"
        else
          match Ba_serve.Protocol.read_frame fd with
          | None -> fail i "the server closed the connection"
          | exception (Unix.Unix_error _ | Failure _ | End_of_file) -> fail i "the reply could not be read"
          | Some reply ->
            let latency = Clock.now () -. t0 in
            (match check i reply with
            | Ok () -> samples := (i, latency) :: !samples
            | Error reason -> ignore (fail i reason));
            go (i + 1))
  in
  let attempted = go 0 in
  { attempted; failed = !failed; failures = List.rev !failures; samples = List.rev !samples }
