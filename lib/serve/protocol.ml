(* Wire protocol: 4-byte big-endian payload length, then a JSON document.
   One request or response per frame.  The framing is deliberately dumb —
   everything interesting (kinds, status, bodies) lives in the JSON, so the
   protocol can grow fields without breaking old frames. *)

let max_frame_bytes = 16 * 1024 * 1024

type kind = Ping | Align | Simulate | Verify | Analyze | Tables | Metrics

let kind_name = function
  | Ping -> "ping"
  | Align -> "align"
  | Simulate -> "simulate"
  | Verify -> "verify"
  | Analyze -> "analyze"
  | Tables -> "tables"
  | Metrics -> "metrics"

let kind_of_name = function
  | "ping" -> Ok Ping
  | "align" -> Ok Align
  | "simulate" -> Ok Simulate
  | "verify" -> Ok Verify
  | "analyze" -> Ok Analyze
  | "tables" -> Ok Tables
  | "metrics" -> Ok Metrics
  | s -> Error (Printf.sprintf "unknown request kind %S" s)

type request = {
  id : int;
  kind : kind;
  workload : string;  (* ignored by ping/metrics *)
  algo : string;  (* spelling as on the command line; "" = default *)
  arch : string;  (* likewise *)
  max_steps : int option;
}

type status = Ok_ | Error_ of string | Overloaded

type response = { rid : int; status : status; body : Ba_util.Json.t }

let request ?(workload = "") ?(algo = "") ?(arch = "") ?max_steps ~id kind =
  { id; kind; workload; algo; arch; max_steps }

let request_to_json (r : request) =
  let open Ba_util.Json in
  Obj
    (List.concat
       [
         [ ("id", Int r.id); ("kind", String (kind_name r.kind)) ];
         (if r.workload = "" then [] else [ ("workload", String r.workload) ]);
         (if r.algo = "" then [] else [ ("algo", String r.algo) ]);
         (if r.arch = "" then [] else [ ("arch", String r.arch) ]);
         (match r.max_steps with
         | None -> []
         | Some s -> [ ("max_steps", Int s) ]);
       ])

let request_of_json (j : Ba_util.Json.t) : (request, string) result =
  let open Ba_util.Json in
  let str key default =
    match member key j with
    | None -> Ok default
    | Some v -> (
      match to_string_opt v with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "request field %S must be a string" key))
  in
  match member "id" j with
  | None -> Error "request missing \"id\""
  | Some idv -> (
    match to_int_opt idv with
    | None -> Error "request field \"id\" must be an integer"
    | Some id -> (
      match member "kind" j with
      | None -> Error "request missing \"kind\""
      | Some kv -> (
        match to_string_opt kv with
        | None -> Error "request field \"kind\" must be a string"
        | Some ks -> (
          match kind_of_name ks with
          | Error e -> Error e
          | Ok kind -> (
            match (str "workload" "", str "algo" "", str "arch" "") with
            | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e
            | Ok workload, Ok algo, Ok arch -> (
              match member "max_steps" j with
              | None -> Ok { id; kind; workload; algo; arch; max_steps = None }
              | Some sv -> (
                match to_int_opt sv with
                | Some s when s > 0 ->
                  Ok { id; kind; workload; algo; arch; max_steps = Some s }
                | Some _ | None ->
                  Error "request field \"max_steps\" must be a positive integer"))))))
    )

let status_name = function
  | Ok_ -> "ok"
  | Error_ _ -> "error"
  | Overloaded -> "overloaded"

let response_to_json (r : response) =
  let open Ba_util.Json in
  Obj
    (List.concat
       [
         [ ("id", Int r.rid); ("status", String (status_name r.status)) ];
         (match r.status with
         | Error_ msg -> [ ("error", String msg) ]
         | Ok_ | Overloaded -> []);
         (match r.body with Null -> [] | body -> [ ("body", body) ]);
       ])

let response_of_json (j : Ba_util.Json.t) : (response, string) result =
  let open Ba_util.Json in
  match Option.bind (member "id" j) to_int_opt with
  | None -> Error "response missing integer \"id\""
  | Some rid -> (
    match Option.bind (member "status" j) to_string_opt with
    | None -> Error "response missing \"status\""
    | Some s ->
      let body = Option.value ~default:Null (member "body" j) in
      (match s with
      | "ok" -> Ok { rid; status = Ok_; body }
      | "overloaded" -> Ok { rid; status = Overloaded; body }
      | "error" ->
        let msg =
          Option.value ~default:"unknown error"
            (Option.bind (member "error" j) to_string_opt)
        in
        Ok { rid; status = Error_ msg; body }
      | s -> Error (Printf.sprintf "unknown response status %S" s)))

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)

let frame payload =
  let n = String.length payload in
  if n > max_frame_bytes then invalid_arg "Protocol.frame: payload too large";
  let b = Bytes.create (4 + n) in
  Bytes.set_uint8 b 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 b 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 b 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 b 3 (n land 0xff);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

module Framer = struct
  (* Incremental decoder for the non-blocking server loop: feed whatever
     bytes arrived, pop complete payloads in order. *)
  type t = {
    mutable header : int;  (* header bytes consumed, < 4 while reading it *)
    mutable need : int;  (* payload length once the header is complete *)
    mutable partial : Buffer.t;
    ready : string Queue.t;
    hdr : Bytes.t;
  }

  let create () =
    {
      header = 0;
      need = -1;
      partial = Buffer.create 256;
      ready = Queue.create ();
      hdr = Bytes.create 4;
    }

  let feed t buf off len =
    let i = ref off in
    let stop = off + len in
    let err = ref None in
    while !i < stop && !err = None do
      if t.need < 0 then begin
        Bytes.set t.hdr t.header (Bytes.get buf !i);
        t.header <- t.header + 1;
        incr i;
        if t.header = 4 then begin
          let n =
            (Bytes.get_uint8 t.hdr 0 lsl 24)
            lor (Bytes.get_uint8 t.hdr 1 lsl 16)
            lor (Bytes.get_uint8 t.hdr 2 lsl 8)
            lor Bytes.get_uint8 t.hdr 3
          in
          if n > max_frame_bytes then
            err := Some (Printf.sprintf "frame of %d bytes exceeds limit" n)
          else begin
            t.need <- n;
            t.header <- 0;
            if n = 0 then begin
              Queue.add "" t.ready;
              t.need <- -1
            end
          end
        end
      end
      else begin
        let take = min (stop - !i) (t.need - Buffer.length t.partial) in
        Buffer.add_subbytes t.partial buf !i take;
        i := !i + take;
        if Buffer.length t.partial = t.need then begin
          Queue.add (Buffer.contents t.partial) t.ready;
          Buffer.clear t.partial;
          t.need <- -1
        end
      end
    done;
    match !err with None -> Ok () | Some e -> Error e

  let next t = Queue.take_opt t.ready
end

(* ------------------------------------------------------------------ *)
(* Blocking IO (clients, tests)                                        *)

let rec really_read fd buf off len =
  if len > 0 then begin
    let n = Unix.read fd buf off len in
    if n = 0 then raise End_of_file;
    really_read fd buf (off + n) (len - n)
  end

let rec really_write fd buf off len =
  if len > 0 then begin
    let n = Unix.write fd buf off len in
    really_write fd buf (off + n) (len - n)
  end

let read_frame fd : string option =
  let hdr = Bytes.create 4 in
  match really_read fd hdr 0 4 with
  | exception End_of_file -> None
  | () ->
    let n =
      (Bytes.get_uint8 hdr 0 lsl 24)
      lor (Bytes.get_uint8 hdr 1 lsl 16)
      lor (Bytes.get_uint8 hdr 2 lsl 8)
      lor Bytes.get_uint8 hdr 3
    in
    if n > max_frame_bytes then
      failwith (Printf.sprintf "frame of %d bytes exceeds limit" n);
    let payload = Bytes.create n in
    really_read fd payload 0 n;
    Some (Bytes.unsafe_to_string payload)

let write_frame fd payload =
  let framed = frame payload in
  really_write fd (Bytes.unsafe_of_string framed) 0 (String.length framed)

let write_request fd (r : request) =
  write_frame fd (Ba_util.Json.to_string (request_to_json r))
