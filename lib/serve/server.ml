(* The serving loop.

   Two domains split the work:

   - the {e IO domain} (the caller of [run]) owns the listening socket and
     every connection: it [select]s, accepts, feeds non-blocking reads
     through each connection's {!Protocol.Framer}, and turns complete
     frames into admission-queue entries.  Overload rejections and parse
     errors are answered directly from here — they must not wait behind
     compute.
   - the {e dispatcher domain} drains the admission queue in batches of at
     most [batch_max], executes each batch with {!Ba_par.Pool.map_array}
     (task-indexed slots: responses are byte-identical at any [-j]), and
     writes the responses.  [metrics] requests are answered between
     batches, on the dispatcher, because they read the registry and the
     latency samples that batch execution writes.

   Shutdown (SIGINT, SIGTERM, or [stop]) closes the listening socket,
   wakes both domains through a self-pipe, lets the dispatcher drain every
   queued request, then closes connections and unlinks the socket path. *)

type config = {
  socket_path : string;
  jobs : int option;
  cache_mb : int option;
  queue_len : int;
  batch_max : int;
  install_signals : bool;
}

let default_config ~socket_path =
  {
    socket_path;
    jobs = None;
    cache_mb = None;
    queue_len = 256;
    batch_max = 64;
    install_signals = true;
  }

type conn = {
  fd : Unix.file_descr;
  framer : Protocol.Framer.t;
  wmutex : Mutex.t;
  alive : bool Atomic.t;  (* false once the peer vanished *)
  pending : int Atomic.t;  (* admitted requests not yet responded to *)
  closed : bool Atomic.t;  (* the fd has been closed *)
}

(* The fd may be closed only once no queued response can still name it —
   otherwise the kernel could recycle the descriptor for a fresh accept and
   a late response would land on the wrong client.  [drop] (IO side) and
   the dispatcher's post-response bookkeeping both funnel here; the atomic
   exchange makes the close single-shot. *)
let conn_close conn =
  if not (Atomic.exchange conn.closed true) then
    try Unix.close conn.fd with Unix.Unix_error _ -> ()

type pending = {
  p_conn : conn;
  p_req : Protocol.request;
  p_enqueued : float;  (* Unix.gettimeofday at admission *)
}

(* Latency samples, microseconds.  Growable arrays so the percentiles are
   exact (nearest rank), not bucket estimates. *)
type samples = { mutable a : int array; mutable n : int }

let samples_create () = { a = Array.make 1024 0; n = 0 }

let samples_add s v =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0 in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- v;
  s.n <- s.n + 1

let samples_percentile sorted n q =
  if n = 0 then 0
  else begin
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

let samples_summary s =
  let sorted = Array.sub s.a 0 s.n in
  Array.sort compare sorted;
  let pct q = samples_percentile sorted s.n q in
  Ba_util.Json.Obj
    [
      ("count", Ba_util.Json.Int s.n);
      ("p50_us", Ba_util.Json.Int (pct 0.50));
      ("p95_us", Ba_util.Json.Int (pct 0.95));
      ("p99_us", Ba_util.Json.Int (pct 0.99));
      ("max_us", Ba_util.Json.Int (if s.n = 0 then 0 else sorted.(s.n - 1)));
    ]

(* Volatile: wall-clock latencies can never be part of the deterministic
   metrics document. *)
let h_queue_us =
  Ba_obs.Histogram.make ~unit_:"us" ~volatile:true "serve.queue_wait_us"

let h_service_us =
  Ba_obs.Histogram.make ~unit_:"us" ~volatile:true "serve.service_us"

let m_requests = Ba_obs.Counter.make ~unit_:"requests" ~volatile:true "serve.requests"
let m_batches = Ba_obs.Counter.make ~unit_:"batches" ~volatile:true "serve.batches"

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  wake_r : Unix.file_descr;  (* self-pipe: signals and [stop] *)
  wake_w : Unix.file_descr;
  stopping : bool Atomic.t;
  qmutex : Mutex.t;
  qcond : Condition.t;
  queue : pending Queue.t;
  mutable io_done : bool;  (* IO loop stopped feeding the queue *)
  smutex : Mutex.t;  (* stats below *)
  queue_us : samples;
  service_us : samples;
  mutable served : int;
  mutable rejected : int;
  mutable batches : int;
  registry : Ba_obs.Registry.t;
  started : float;
}

let write_all conn s =
  (* Connection fds are non-blocking (the IO loop reads them that way);
     wait for writability between partial writes so a slow reader cannot
     wedge a response half-sent. *)
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    match Unix.write conn.fd b !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      ignore (Unix.select [] [ conn.fd ] [] 5.0)
  done

let send_response conn (resp : Protocol.response) =
  if Atomic.get conn.alive && not (Atomic.get conn.closed) then begin
    let payload = Ba_util.Json.to_string (Protocol.response_to_json resp) in
    Mutex.lock conn.wmutex;
    (try write_all conn (Protocol.frame payload)
     with Unix.Unix_error _ -> Atomic.set conn.alive false);
    Mutex.unlock conn.wmutex
  end

(* Dispatcher side: respond, then release the admission reference; close a
   dropped connection once its last response has been accounted for. *)
let respond_and_release conn resp =
  send_response conn resp;
  let remaining = Atomic.fetch_and_add conn.pending (-1) - 1 in
  if remaining = 0 && not (Atomic.get conn.alive) then conn_close conn

let cache_stats_json () =
  let s = Ba_workloads.Profiled.lru_stats () in
  Ba_util.Json.Obj
    [
      ("hits", Ba_util.Json.Int s.Ba_par.Lru.hits);
      ("misses", Ba_util.Json.Int s.Ba_par.Lru.misses);
      ("evictions", Ba_util.Json.Int s.Ba_par.Lru.evictions);
      ("entries", Ba_util.Json.Int s.Ba_par.Lru.entries);
      ("bytes", Ba_util.Json.Int s.Ba_par.Lru.bytes);
      ("budget_bytes", Ba_util.Json.Int s.Ba_par.Lru.budget_bytes);
    ]

(* Runs on the dispatcher, between batches: the registry and the sample
   arrays are quiescent there. *)
let metrics_response t (req : Protocol.request) =
  Mutex.lock t.smutex;
  let body =
    Ba_util.Json.Obj
      [
        ("metrics", Ba_obs.Sink.to_json t.registry);
        ( "server",
          Ba_util.Json.Obj
            [
              ("uptime_s", Ba_util.Json.Float (Unix.gettimeofday () -. t.started));
              ("served", Ba_util.Json.Int t.served);
              ("overloaded", Ba_util.Json.Int t.rejected);
              ("batches", Ba_util.Json.Int t.batches);
              ("queue_wait", samples_summary t.queue_us);
              ("service", samples_summary t.service_us);
              ("cache", cache_stats_json ());
            ] );
      ]
  in
  Mutex.unlock t.smutex;
  { Protocol.rid = req.Protocol.id; status = Ok_; body }

let dispatcher_loop t pool =
  Ba_obs.Registry.set_current (Some t.registry);
  let batch = Array.make t.cfg.batch_max None in
  let rec loop () =
    Mutex.lock t.qmutex;
    while Queue.is_empty t.queue && not t.io_done do
      Condition.wait t.qcond t.qmutex
    done;
    let n = ref 0 in
    while !n < t.cfg.batch_max && not (Queue.is_empty t.queue) do
      batch.(!n) <- Some (Queue.pop t.queue);
      incr n
    done;
    let drained = Queue.is_empty t.queue && t.io_done in
    Mutex.unlock t.qmutex;
    let count = !n in
    if count > 0 then begin
      let items = Array.init count (fun i -> Option.get batch.(i)) in
      Array.fill batch 0 count None;
      let t_start = Unix.gettimeofday () in
      (* Compute kinds go through the pool; metrics are answered here
         afterwards, in batch order, once the batch's registries have
         merged. *)
      let responses =
        Ba_par.Pool.map_array pool
          (fun p ->
            match p.p_req.Protocol.kind with
            | Protocol.Metrics -> None
            | _ ->
              let t0 = Unix.gettimeofday () in
              let resp = Handler.handle p.p_req in
              Some (resp, Unix.gettimeofday () -. t0))
          items
      in
      let t_end = Unix.gettimeofday () in
      Mutex.lock t.smutex;
      t.batches <- t.batches + 1;
      Array.iteri
        (fun i p ->
          let queue_us =
            int_of_float ((t_start -. p.p_enqueued) *. 1e6)
          in
          samples_add t.queue_us (max 0 queue_us);
          Ba_obs.Histogram.observe h_queue_us (max 0 queue_us);
          let service_s =
            match responses.(i) with
            | Some (_, s) -> s
            | None -> t_end -. t_start
          in
          let service_us = max 0 (int_of_float (service_s *. 1e6)) in
          samples_add t.service_us service_us;
          Ba_obs.Histogram.observe h_service_us service_us;
          t.served <- t.served + 1;
          Ba_obs.Counter.incr m_requests)
        items;
      Ba_obs.Counter.incr m_batches;
      Mutex.unlock t.smutex;
      Array.iteri
        (fun i p ->
          let resp =
            match responses.(i) with
            | Some (resp, _) -> resp
            | None -> metrics_response t p.p_req
          in
          respond_and_release p.p_conn resp)
        items
    end;
    if not drained then loop ()
  in
  loop ();
  Ba_obs.Registry.set_current None

(* ------------------------------------------------------------------ *)
(* IO loop                                                             *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let overload_response (req : Protocol.request) =
  { Protocol.rid = req.Protocol.id; status = Overloaded; body = Ba_util.Json.Null }

let admit t conn payload =
  match Ba_util.Json.parse payload with
  | Error e ->
    send_response conn
      { Protocol.rid = 0; status = Error_ ("bad frame: " ^ e); body = Null };
    true
  | Ok j -> (
    match Protocol.request_of_json j with
    | Error e ->
      let rid =
        match Option.bind (Ba_util.Json.member "id" j) Ba_util.Json.to_int_opt with
        | Some id -> id
        | None -> 0
      in
      send_response conn { Protocol.rid; status = Error_ e; body = Null };
      true
    | Ok req ->
      Mutex.lock t.qmutex;
      let accepted = Queue.length t.queue < t.cfg.queue_len in
      if accepted then begin
        Atomic.incr conn.pending;
        Queue.add
          { p_conn = conn; p_req = req; p_enqueued = Unix.gettimeofday () }
          t.queue;
        Condition.signal t.qcond
      end;
      Mutex.unlock t.qmutex;
      if not accepted then begin
        Mutex.lock t.smutex;
        t.rejected <- t.rejected + 1;
        Mutex.unlock t.smutex;
        send_response conn (overload_response req)
      end;
      true)

let io_loop t =
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let buf = Bytes.create 65536 in
  let drain_wake () =
    match Unix.read t.wake_r (Bytes.create 64) 0 64 with
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  let handle_readable fd =
    if fd = t.listen_fd then begin
      match Unix.accept ~cloexec:true t.listen_fd with
      | cfd, _ ->
        Unix.set_nonblock cfd;
        Hashtbl.replace conns cfd
          {
            fd = cfd;
            framer = Protocol.Framer.create ();
            wmutex = Mutex.create ();
            alive = Atomic.make true;
            pending = Atomic.make 0;
            closed = Atomic.make false;
          }
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    end
    else if fd = t.wake_r then drain_wake ()
    else
      match Hashtbl.find_opt conns fd with
      | None -> ()
      | Some conn ->
        let drop () =
          Atomic.set conn.alive false;
          Hashtbl.remove conns fd;
          if Atomic.get conn.pending = 0 then conn_close conn
        in
        let rec pump () =
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> drop ()
          | n -> (
            match Protocol.Framer.feed conn.framer buf 0 n with
            | Error _ -> drop ()
            | Ok () ->
              let rec frames () =
                match Protocol.Framer.next conn.framer with
                | Some payload ->
                  ignore (admit t conn payload : bool);
                  frames ()
                | None -> ()
              in
              frames ();
              if Atomic.get conn.alive then pump ())
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            ()
          | exception Unix.Unix_error _ -> drop ()
        in
        pump ()
  in
  let rec loop () =
    if Atomic.get t.stopping then ()
    else begin
      let read_fds =
        t.listen_fd :: t.wake_r
        :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns []
      in
      (match Unix.select read_fds [] [] 1.0 with
      | readable, _, _ -> List.iter handle_readable readable
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  (* Stop feeding the queue and let the dispatcher drain what is already
     admitted. *)
  Mutex.lock t.qmutex;
  t.io_done <- true;
  Condition.broadcast t.qcond;
  Mutex.unlock t.qmutex;
  conns

let wake t =
  try ignore (Unix.write t.wake_w (Bytes.of_string "x") 0 1)
  with Unix.Unix_error _ -> ()

let request_stop t =
  Atomic.set t.stopping true;
  wake t

let create cfg =
  (* A zero batch never takes from the queue and a zero queue admits
     nothing: either server would never answer. *)
  if cfg.queue_len < 1 || cfg.batch_max < 1 then
    invalid_arg "Server: queue_len and batch_max must be positive";
  (match cfg.cache_mb with
  | Some mb -> Ba_workloads.Profiled.set_budget_mb mb
  | None -> ());
  if String.length cfg.socket_path > 100 then
    invalid_arg "Server: socket path too long for a unix socket";
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  {
    cfg;
    listen_fd;
    wake_r;
    wake_w;
    stopping = Atomic.make false;
    qmutex = Mutex.create ();
    qcond = Condition.create ();
    queue = Queue.create ();
    io_done = false;
    smutex = Mutex.create ();
    queue_us = samples_create ();
    service_us = samples_create ();
    served = 0;
    rejected = 0;
    batches = 0;
    registry = Ba_obs.Registry.create ();
    started = Unix.gettimeofday ();
  }

let run_created t =
  let previous =
    if t.cfg.install_signals then
      List.map
        (fun signum ->
          (signum, Sys.signal signum (Sys.Signal_handle (fun _ -> request_stop t))))
        [ Sys.sigint; Sys.sigterm ]
    else []
  in
  let finish () =
    List.iter (fun (signum, behavior) -> Sys.set_signal signum behavior) previous
  in
  Fun.protect ~finally:finish (fun () ->
      Ba_par.Pool.with_pool ?jobs:t.cfg.jobs (fun pool ->
          let dispatcher = Domain.spawn (fun () -> dispatcher_loop t pool) in
          let conns = io_loop t in
          Domain.join dispatcher;
          Hashtbl.iter (fun _ conn -> conn_close conn) conns);
      close_quietly t.listen_fd;
      close_quietly t.wake_r;
      close_quietly t.wake_w;
      try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ())

let run cfg =
  let t = create cfg in
  run_created t

type handle = { server : t; thread : unit Domain.t }

let start cfg =
  let t = create cfg in
  (* The socket is bound and listening before [start] returns, so a client
     may connect immediately. *)
  let thread = Domain.spawn (fun () -> run_created t) in
  { server = t; thread }

let stop h =
  request_stop h.server;
  Domain.join h.thread
