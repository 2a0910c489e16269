(* Spans recorded by the benchmark around its calls into each layer.

   Collection is off until [start]; [with_] then costs one branch.  Spans
   are kept in memory and written out by [write] when the run ends.  Each
   span has a name, a start, an end, its parent and the request it belongs
   to; a span's self time is its duration minus its children's, which nest
   strictly inside it on the one recording domain. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root *)
  rid : int;  (* the request, or program, the span belongs to *)
  start : float;
  stop : float;
}

type frame = {
  f_id : int;
  f_start : float;
  f_alloc : float;  (* minor words allocated before the span opened *)
  mutable f_children : float;  (* seconds covered by finished children *)
}

type totals = {
  mutable self_s : float;
  mutable alloc_words : float;  (* minor words, children included *)
}

type recorder = {
  t0 : float;
  mutable rid : int;
  mutable next_id : int;
  mutable stack : frame list;
  mutable finished : span list;  (* newest first *)
  totals : (string, totals) Hashtbl.t;
}

let current : recorder option ref = ref None

let start () =
  current :=
    Some
      {
        t0 = Clock.now ();
        rid = -1;
        next_id = 0;
        stack = [];
        finished = [];
        totals = Hashtbl.create 32;
      }

let finish r fr name =
  let stop = Clock.now () in
  let alloc = Gc.minor_words () -. fr.f_alloc in
  r.stack <- List.tl r.stack;
  let dur = stop -. fr.f_start in
  let parent =
    match r.stack with
    | p :: _ ->
      p.f_children <- p.f_children +. dur;
      p.f_id
    | [] -> -1
  in
  r.finished <-
    { id = fr.f_id; name; parent; rid = r.rid; start = fr.f_start; stop }
    :: r.finished;
  let tot =
    match Hashtbl.find_opt r.totals name with
    | Some tot -> tot
    | None ->
      let tot = { self_s = 0.0; alloc_words = 0.0 } in
      Hashtbl.add r.totals name tot;
      tot
  in
  tot.self_s <- tot.self_s +. (dur -. fr.f_children);
  tot.alloc_words <- tot.alloc_words +. alloc

(* [with_named f] runs [f] under a span whose name [f] returns with its
   result, for calls whose layer is known only afterwards (a cache lookup
   that turned into a recording). *)
let with_named f =
  match !current with
  | None -> fst (f ())
  | Some r -> (
    let fr =
      {
        f_id = r.next_id;
        f_start = Clock.now ();
        f_alloc = Gc.minor_words ();
        f_children = 0.0;
      }
    in
    r.next_id <- r.next_id + 1;
    r.stack <- fr :: r.stack;
    match f () with
    | v, name ->
      finish r fr name;
      v
    | exception e ->
      finish r fr "exception";
      raise e)

let with_ name f = with_named (fun () -> (f (), name))

(* A root span for one request: the spans [f] opens carry [rid]. *)
let request rid name f =
  match !current with
  | None -> f ()
  | Some r ->
    r.rid <- rid;
    with_ name f

let stop () =
  let r = !current in
  current := None;
  match r with
  | Some r -> r
  | None -> invalid_arg "Spans.stop: not recording"

let self_ms r name =
  match Hashtbl.find_opt r.totals name with
  | Some t -> 1000.0 *. t.self_s
  | None -> 0.0

let alloc_mw r name =
  match Hashtbl.find_opt r.totals name with
  | Some t -> t.alloc_words /. 1e6
  | None -> 0.0

(* One JSON object per line, times in microseconds from [start]. *)
let write r file =
  Out_channel.with_open_bin file (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"parent\":%d,\"rid\":%d,\"start_us\":%.1f,\"end_us\":%.1f}\n"
            s.id s.name s.parent s.rid
            ((s.start -. r.t0) *. 1e6)
            ((s.stop -. r.t0) *. 1e6))
        (List.rev r.finished))
