(* The fds serve daemon: a socket server speaking Protocol frames, one
   session per connection over a shared store. The main domain is a
   dispatcher: it accepts connections and selects over the parked
   (quiet) ones, moving each to the ready queue the moment it has
   input; worker domains pop ready connections, drain every buffered
   frame into one corked flush, and hand the quiet connection back.
   Workers never block on a socket, so any number of open connections
   multiplex over a small pool. All database mutation is serialized by
   the store lock inside Session, so concurrent connections observe
   serializable transactions.

   Replication: with a journal the server boots as a *leader* — it
   recovers the journal's committed state, stamps a fresh epoch, and
   serves the `fetch` op from an incremental log view; journal appends
   run with fsync for power-loss durability. With [?follow] it boots as
   a *follower*: it recovers from its own snapshot + journal tail, then
   a dedicated domain streams committed entries from the leader and
   applies them through the Session machinery, while client
   connections get read-only service (writes are rejected with a
   structured Read_only error). Leader death degrades the follower to
   read-only-and-reconnecting instead of an outage.

   Shutdown is cooperative: a "shutdown" request, SIGINT or SIGTERM
   sets the stop flag; the accept loop (a 0.2s select poll) notices,
   the queue is drained, workers (and the follow domain) join, and the
   socket is closed and unlinked. Trace emission is the caller's
   concern (the CLI installs its usual at_exit observer). *)

open Fdbs_kernel
open Fdbs_rpr

type listen = [ `Unix of string | `Tcp of string * int ]

let address : listen -> Unix.sockaddr = function
  | `Unix path -> Unix.ADDR_UNIX path
  | `Tcp (host, port) -> Unix.ADDR_INET (Unix.inet_addr_of_string host, port)

let describe : listen -> string = function
  | `Unix path -> path
  | `Tcp (host, port) -> Fmt.str "%s:%d" host port

(* One client connection. A connection is owned by exactly one party at
   a time: the ready queue, the worker serving it, or the dispatcher's
   parked watch set (via the idle hand-back list). *)
type conn = {
  fd : Unix.file_descr;
  reader : Protocol.Reader.t;
  oc : out_channel;
  wlock : Mutex.t;
      (* serializes writes to [oc]: the serving worker's replies and
         event frames pushed by committing workers interleave at frame
         granularity. Never held across Session calls (the store lock
         nests inside it, not around it). *)
  session : Session.t ref;  (* rebound by [attach] *)
  bucket : Budget.Bucket.t option;  (* per-connection request admission *)
  stopping : bool ref;  (* this connection carried a shutdown request *)
}

let with_wlock conn f =
  Mutex.lock conn.wlock;
  Fun.protect ~finally:(fun () -> Mutex.unlock conn.wlock) f

type t = {
  store : Session.Store.t;
  schema : Schema.t;
  spec : Fdbs_algebra.Spec.t option;
  config : Config.t;  (* the adjusted (post-role) configuration *)
  auth : string option;  (* token required by [attach], when set *)
  max_queue : int;  (* accepted connections queued beyond this are shed *)
  role : Protocol.role;
  sock : Unix.file_descr;
  stop : bool Atomic.t;
  queue : conn Queue.t;  (* connections with input waiting for a worker *)
  qlock : Mutex.t;
  qcond : Condition.t;
  idle : conn list ref;  (* drained connections headed back to the watch
                            set; guarded by [qlock] *)
  wake_r : Unix.file_descr;  (* self-pipe: workers poke the dispatcher *)
  wake_w : Unix.file_descr;
  namespaces : (string, Session.Store.t) Hashtbl.t;
  ns_lock : Mutex.t;
  subscribers : (Unix.file_descr, conn) Hashtbl.t;
      (* connections that asked for event frames; guarded by [sub_lock] *)
  sub_lock : Mutex.t;
  connections : int Atomic.t;
  requests : int Atomic.t;
}

type stats = {
  served_connections : int;
  served_requests : int;
}

let h_request_us = Metrics.histogram "service.request_us"
let c_workers = Metrics.counter "service.workers"
let c_bad_frames = Metrics.counter "service.bad_frames"
let c_throttled = Metrics.counter "service.throttled"
let c_shed = Metrics.counter "service.shed"
let c_attached = Metrics.counter "service.attached"
let c_subscribed = Metrics.counter "service.subscribed"
let c_events_pushed = Metrics.counter "service.events_pushed"

let wake_byte = Bytes.of_string "x"

let wake server =
  try ignore (Unix.write server.wake_w wake_byte 0 1)
  with Unix.Unix_error _ -> ()

let request_stop server =
  Atomic.set server.stop true;
  wake server;
  Mutex.lock server.qlock;
  Condition.broadcast server.qcond;
  Mutex.unlock server.qlock

let bad_request fmt =
  Fmt.kstr (fun m -> Error.make Error.Parse Error.Exec_failure m) fmt

(* ------------------------------------------------------------------ *)
(* multi-tenant namespaces                                             *)
(* ------------------------------------------------------------------ *)

let valid_namespace name =
  name <> ""
  && String.length name <= 64
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '-' || c = '.')
       name

(* Find or create the namespace's store. Every namespace is an
   independent store — own state, own domain, own journal
   ([base ^ "." ^ ns], recovered at first attach) — but all of them
   share the process-wide planner cache: plan keys mix the schema
   fingerprint, so tenants with identical schemas reuse each other's
   compiled plans. *)
let namespace_store server ns : (Session.Store.t, Error.t) result =
  Mutex.lock server.ns_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock server.ns_lock) @@ fun () ->
  match Hashtbl.find_opt server.namespaces ns with
  | Some st -> Ok st
  | None ->
    let ( let* ) = Result.bind in
    let config =
      match server.config.Config.journal with
      | None -> server.config
      | Some base -> { server.config with Config.journal = Some (base ^ "." ^ ns) }
    in
    let* st = Session.Store.create ~config ?spec:server.spec server.schema in
    let* () =
      match config.Config.journal with
      | Some journal when Sys.file_exists journal ->
        let boot = Session.on_store st in
        let* replayed = Session.replay boot journal in
        (match replayed.Session.rep_torn with
         | Some what -> Fmt.epr "fds: warning: journal %s: %s@." journal what
         | None -> ());
        Ok ()
      | _ -> Ok ()
    in
    Hashtbl.add server.namespaces ns st;
    Metrics.incr c_attached;
    Ok st

(* The [attach] op lives here rather than in Protocol.handle because it
   swaps the connection onto another store's session. Followers reject
   it (namespaces live on the leader); with [--auth-token] the request
   must carry the matching ["token"]. *)
let handle_attach server (req : Protocol.request) :
  (Session.Store.t * string, Error.t) result =
  let ( let* ) = Result.bind in
  let* () =
    match server.role with
    | Protocol.Follower _ ->
      Result.Error
        (Error.make
           ~context:[ ("op", "attach") ]
           Error.Exec Error.Read_only
           "read-only replica: attach must go to the leader")
    | _ -> Ok ()
  in
  let* () =
    match server.auth with
    | None -> Ok ()
    | Some expected ->
      let token =
        Option.bind (Json.field "token" req.Protocol.body) Json.to_string_opt
      in
      if token = Some expected then Ok ()
      else
        Result.Error
          (Error.make Error.Exec Error.Unauthorized
             "attach: missing or invalid token")
  in
  let* ns =
    match
      Option.bind (Json.field "namespace" req.Protocol.body) Json.to_string_opt
    with
    | None -> Result.Error (bad_request "attach needs a \"namespace\" string")
    | Some ns when not (valid_namespace ns) ->
      Result.Error
        (bad_request
           "invalid namespace %S: up to 64 characters of [A-Za-z0-9_.-]" ns)
    | Some ns -> Ok ns
  in
  let* st = namespace_store server ns in
  Ok (st, ns)

(* ------------------------------------------------------------------ *)
(* monitor subscriptions                                               *)
(* ------------------------------------------------------------------ *)

(* Fan a batch of monitor events out to every subscribed connection as
   violation frames. Runs on the committing worker (the store sink is
   called from the commit's publish phase), so pushes are short
   buffered writes; a subscriber whose socket fails is dropped from
   the registry and left for the dispatcher to reap. *)
let broadcast_events server (events : Monitor.event list) =
  Mutex.lock server.sub_lock;
  let subs = Hashtbl.fold (fun _ c acc -> c :: acc) server.subscribers [] in
  Mutex.unlock server.sub_lock;
  if subs <> [] then begin
    let frames = List.map Protocol.violation_frame events in
    List.iter
      (fun conn ->
        match
          with_wlock conn (fun () ->
              List.iter (Protocol.output_frame conn.oc) frames;
              flush conn.oc)
        with
        | () -> Metrics.add c_events_pushed (List.length frames)
        | exception Sys_error _ ->
          Mutex.lock server.sub_lock;
          Hashtbl.remove server.subscribers conn.fd;
          Mutex.unlock server.sub_lock)
      subs
  end

(* The [subscribe] op lives here rather than in Protocol.handle because
   it changes what the connection receives from now on. The reply is
   followed by one deterministic heartbeat frame, so a client can sync
   its counters before the first violation arrives. *)
let handle_subscribe server conn (req : Protocol.request) : unit =
  let id = req.Protocol.id in
  match Session.monitor !(conn.session) with
  | Result.Error e ->
    with_wlock conn (fun () ->
        Protocol.output_frame conn.oc (Protocol.error_response ~id e))
  | Ok status ->
    Mutex.lock server.sub_lock;
    Hashtbl.replace server.subscribers conn.fd conn;
    Mutex.unlock server.sub_lock;
    Metrics.incr c_subscribed;
    with_wlock conn (fun () ->
        Protocol.output_frame conn.oc
          (Protocol.ok_response ~id
             (Json.Obj
                [
                  ("subscribed", Json.Bool true);
                  ("theory", Json.Str status.Session.mon_theory);
                ]));
        Protocol.output_frame conn.oc
          (Protocol.heartbeat_frame ~commits:status.Session.mon_commits
             ~violations:status.Session.mon_violations))

let unsubscribe server conn =
  Mutex.lock server.sub_lock;
  Hashtbl.remove server.subscribers conn.fd;
  Mutex.unlock server.sub_lock

(* ------------------------------------------------------------------ *)
(* connections                                                         *)
(* ------------------------------------------------------------------ *)

(* Connections are multiplexed, not owned: a worker serves a *ready*
   connection by draining every frame the client has already sent
   (answering into the output buffer), flushing once the pipeline is
   empty, and handing the quiet connection back to the dispatcher's
   select set. A worker therefore never blocks on a socket — a client
   may hold any number of open connections (`fds client --pool`, or
   simply an idle session) without starving the pool, and a pipelined
   burst of N requests gets N responses in order behind one corked
   flush. *)

let new_conn server fd =
  {
    fd;
    reader = Protocol.Reader.create fd;
    oc = Unix.out_channel_of_descr fd;
    wlock = Mutex.create ();
    session = ref (Session.on_store server.store);
    bucket =
      (match server.config.Config.rate_limit with
      | None -> None
      | Some rate ->
        Some
          (Budget.Bucket.make ?burst:server.config.Config.rate_burst ~rate ()));
    stopping = ref false;
  }

let admit server conn () =
  match conn.bucket with
  | None ->
    Atomic.incr server.requests;
    Ok ()
  | Some b ->
    (match Budget.Bucket.take b 1.0 with
     | Ok () ->
       Atomic.incr server.requests;
       Ok ()
     | Result.Error wait ->
       Metrics.incr c_throttled;
       Result.Error
         (Error.overloaded ~retry_after_s:wait
            "connection overloaded: request rate exceeded"))

(* The [hello] feature flags for this connection: what the server
   layers on top of the per-request protocol. *)
let features_of server conn =
  (match server.role with
   | Protocol.Follower _ -> []
   | _ -> [ "namespaces" ])
  @
  match Session.Store.monitors (Session.store !(conn.session)) with
  | Some _ -> [ "monitors"; "subscribe" ]
  | None -> []

let handle_frame server conn payload =
  let oc = conn.oc in
  let write r = with_wlock conn (fun () -> Protocol.output_frame oc r) in
  match Protocol.request_of_string payload with
  | Result.Error (id, e) ->
    (* a parse failure is the client's malformed frame, not a served
       request: account it separately *)
    Metrics.incr c_bad_frames;
    write (Protocol.error_response ~id e)
  | Ok req ->
    let id = req.Protocol.id in
    (* a batch admits (and counts) each sub-request inside the
       handler instead of paying once for the envelope *)
    (match if req.Protocol.op = "batch" then Ok () else admit server conn ()
     with
     | Result.Error e -> write (Protocol.error_response ~id e)
     | Ok () ->
       (match req.Protocol.op with
        | "attach" ->
          (match handle_attach server req with
           | Result.Error e -> write (Protocol.error_response ~id e)
           | Ok (st, ns) ->
             Session.close !(conn.session);
             (* a subscription follows the session it was made on, not
                the connection: attaching elsewhere drops it *)
             unsubscribe server conn;
             conn.session := Session.on_store st;
             write
               (Protocol.ok_response ~id
                  (Json.Obj [ ("namespace", Json.Str ns) ])))
        | "subscribe" -> handle_subscribe server conn req
        | _ ->
          (* Per-request budgets are rebuilt inside the handler from
             the store config, so accounting stays exact whichever
             worker domain serves the request; reads evaluate against
             a shared snapshot outside the store lock. The reply is
             rendered into the domain's render buffer outside the
             write lock and written from it, so the span and the
             request histogram cover the encode. *)
          let t0 = Mclock.now_us () in
          Fun.protect
            ~finally:(fun () ->
              Metrics.observe_us h_request_us (Mclock.now_us () -. t0))
            (fun () ->
              Trace.with_span ~cat:"service"
                ~args:[ ("op", req.Protocol.op) ]
                "service.request"
                (fun () ->
                  let reply, final =
                    Protocol.handle_obj ~role:server.role
                      ~admit:(admit server conn)
                      ~features:(features_of server conn)
                      !(conn.session) req
                  in
                  Json.with_rendered reply (fun buf ->
                      with_wlock conn (fun () -> Protocol.output_buffer_frame oc buf));
                  if final then conn.stopping := true))))

(* [close_out_noerr] flushes buffered replies (the shutdown "bye"
   included) before closing the underlying fd. *)
let close_conn server conn =
  if !(conn.stopping) then request_stop server;
  unsubscribe server conn;
  Session.close !(conn.session);
  close_out_noerr conn.oc

(* Hand a drained connection back to the dispatcher. Data that arrives
   between the worker's last poll and the dispatcher's next select is
   not lost: select is level-triggered, so the fd reports readable the
   moment it is watched. *)
let park server conn =
  Mutex.lock server.qlock;
  server.idle := conn :: !(server.idle);
  Mutex.unlock server.qlock;
  wake server

let serve_ready server conn =
  let step () =
    let rec go () =
      if !(conn.stopping) then `Close
      else
        match Protocol.Reader.next conn.reader ~block:false with
        | `Eof -> `Close
        | `Frame payload ->
          handle_frame server conn payload;
          go ()
        | `Pending ->
          (* pipeline drained: one corked flush, then back to the
             watch set *)
          with_wlock conn (fun () -> flush conn.oc);
          `Park
    in
    try go () with
    | Error.Error e ->
      (* malformed frame: report once, then drop the connection *)
      Metrics.incr c_bad_frames;
      (try
         with_wlock conn (fun () ->
             Protocol.output_frame conn.oc
               (Protocol.error_response ~id:Json.Null e);
             flush conn.oc)
       with Sys_error _ -> ());
      `Close
    | End_of_file | Sys_error _ -> `Close
    | Fault.Injected _ ->
      (* an armed replication fault (e.g. replication.fetch) cuts the
         stream mid-exchange: drop the connection without a reply, the
         follower reconnects *)
      `Close
  in
  match step () with
  | `Park -> park server conn
  | `Close -> close_conn server conn

let worker server () =
  let rec loop () =
    Mutex.lock server.qlock;
    while Queue.is_empty server.queue && not (Atomic.get server.stop) do
      Condition.wait server.qcond server.qlock
    done;
    let job = Queue.take_opt server.queue in
    Mutex.unlock server.qlock;
    match job with
    | None -> ()
    | Some conn ->
      if Atomic.get server.stop then close_conn server conn
      else serve_ready server conn;
      loop ()
  in
  loop ()

(* Shed load instead of queueing without bound: a connection accepted
   while the queue is already [max_queue] deep gets one structured
   Overloaded frame (with a retry hint) and is closed — it is never
   parked where no worker will reach it. *)
let shed_connection fd =
  Metrics.incr c_shed;
  let oc = Unix.out_channel_of_descr fd in
  Protocol.output_frame oc
    (Protocol.error_response ~id:Json.Null
       (Error.overloaded ~retry_after_s:0.1
          "server overloaded: accept queue is full"));
  (* the close flushes the frame, ignoring a peer that has gone *)
  close_out_noerr oc

let enqueue_ready server conn =
  Mutex.lock server.qlock;
  Queue.push conn server.queue;
  Condition.signal server.qcond;
  Mutex.unlock server.qlock

let accept_one server =
  match Unix.accept server.sock with
  | exception Unix.Unix_error (_, _, _) -> ()
  | fd, _ ->
    Mutex.lock server.qlock;
    let depth = Queue.length server.queue in
    if depth >= server.max_queue then (
      Mutex.unlock server.qlock;
      shed_connection fd)
    else (
      Atomic.incr server.connections;
      (* straight to the ready queue: the first service pass answers
         whatever the client sent with the connect, or parks it *)
      Queue.push (new_conn server fd) server.queue;
      Condition.signal server.qcond;
      Mutex.unlock server.qlock)

(* The dispatcher: accept new connections and select over the parked
   (quiet) ones, moving each back to the ready queue the moment it has
   input. Workers hand drained connections back through [server.idle]
   and poke [wake_w] so a park during a long select is adopted
   immediately rather than at the next 0.2s tick. *)
let accept_loop server =
  let parked : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 64 in
  let adopt_idle () =
    Mutex.lock server.qlock;
    let newly = !(server.idle) in
    server.idle := [];
    Mutex.unlock server.qlock;
    List.iter (fun conn -> Hashtbl.replace parked conn.fd conn) newly
  in
  let drain_wake () =
    let buf = Bytes.create 64 in
    let rec go () =
      match Unix.read server.wake_r buf 0 (Bytes.length buf) with
      | n when n = Bytes.length buf -> go ()
      | _ -> ()
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> ()
    in
    go ()
  in
  while not (Atomic.get server.stop) do
    adopt_idle ();
    let watch =
      server.sock :: server.wake_r
      :: Hashtbl.fold (fun fd _ acc -> fd :: acc) parked []
    in
    match Unix.select watch [] [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
      List.iter
        (fun fd ->
          if fd = server.sock then accept_one server
          else if fd = server.wake_r then drain_wake ()
          else
            match Hashtbl.find_opt parked fd with
            | None -> ()
            | Some conn ->
              Hashtbl.remove parked fd;
              enqueue_ready server conn)
        ready
  done;
  (* stopping: close every quiet connection still on the watch set *)
  adopt_idle ();
  Hashtbl.iter (fun _ conn -> close_conn server conn) parked

let io_error fmt =
  Fmt.kstr (fun m -> Error.make Error.Io Error.Io_failure m) fmt

(* ------------------------------------------------------------------ *)
(* the follower's streaming loop                                       *)
(* ------------------------------------------------------------------ *)

(* Interruptible sleep: the follow domain polls the stop flag so a
   shutdown never waits out a full backoff. *)
let sleep_poll server seconds =
  let slice = 0.05 in
  let rec go left =
    if left > 0.0 && not (Atomic.get server.stop) then (
      Unix.sleepf (Stdlib.min slice left);
      go (left -. slice))
  in
  go seconds

(* Stream committed entries from the leader and apply them. One fetch
   round-trip per poll tick when caught up (heartbeats), back-to-back
   when behind. Any connection failure degrades the replica to
   read-only service and reconnects with capped backoff; a shutdown
   request stops the loop at the next tick. *)
let follow_loop server (replica : Replica.t) (leader : Unix.sockaddr)
    (description : string) =
  let schema = Session.Store.schema server.store in
  let warned = ref false in
  let backoff = ref 0.05 in
  while not (Atomic.get server.stop) do
    match Client.connect ~retries:0 leader with
    | Result.Error _ ->
      if not !warned then (
        Fmt.epr "fds: leader %s unreachable; serving reads only@." description;
        warned := true);
      Replica.set_degraded replica true;
      sleep_poll server !backoff;
      backoff := Stdlib.min 0.5 (!backoff *. 2.)
    | Ok client ->
      (try
         let streaming = ref true in
         while !streaming && not (Atomic.get server.stop) do
           match
             Client.rpc client
               (Protocol.fetch_request ~id:(Json.Num 0.)
                  ~from:(Replica.applied replica) ~epoch:(Replica.epoch replica))
           with
           | None -> streaming := false
           | Some payload ->
             (match Protocol.fetched_of_response ~schema payload with
              | Result.Error e ->
                (* e.g. this leader is stale (our epoch is newer): keep
                   serving reads, retry — a newer leader may come up on
                   the same address *)
                Fmt.epr "fds: fetch rejected: %s@." e.Error.message;
                sleep_poll server 0.2
              | Ok f ->
                if !warned then (
                  Fmt.epr "fds: leader %s reachable again@." description;
                  warned := false);
                Replica.set_degraded replica false;
                backoff := 0.05;
                Replica.note_leader replica f.Protocol.f_last;
                (match f.Protocol.f_snapshot with
                 | Some snap ->
                   (match Replica.install_snapshot replica snap with
                    | Ok () -> ()
                    | Result.Error e ->
                      Fmt.epr "fds: snapshot install failed: %s@."
                        e.Error.message;
                      sleep_poll server 0.2)
                 | None ->
                   if f.Protocol.f_entries = [] then
                     (* heartbeat: caught up *)
                     sleep_poll server 0.05
                   else (
                     match Replica.apply replica f.Protocol.f_entries with
                     | Ok () -> ()
                     | Result.Error e ->
                       Fmt.epr "fds: apply failed: %s@." e.Error.message;
                       sleep_poll server 0.2)))
         done
       with
       | Sys_error _ | Error.Error _ -> ());
      Client.close client
  done

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let serve ?(workers = 0) ?spec ?(config = Config.default)
    ?(ready = fun () -> ()) ?follow ?snapshot_every ?auth ?(max_queue = 1024)
    ?monitors (listen : listen) schema : (stats, Error.t) result =
  let ( let* ) = Result.bind in
  (* 0 (the default) sizes the worker pool to the machine: one domain
     per core, at least two so one long-running request cannot block
     every other ready connection. Workers never block on sockets (the
     dispatcher holds the quiet connections), and they share one store
     — and one process-wide planner cache, safe because plan keys mix
     the schema fingerprint — so every domain serves requests against
     warm plans. *)
  let workers =
    if workers <= 0 then Stdlib.max 2 (Pool.recommended_jobs ()) else workers
  in
  Metrics.set c_workers workers;
  (* Followers apply leader entries as checked transactions journaled
     locally, so their mode is forced transactional; leaders journal
     with fsync so a committed entry survives power loss. *)
  let* config =
    match (follow, config.Config.journal) with
    | Some _, None ->
      Result.Error
        (io_error "follower mode needs --journal (the replica's own journal)")
    | Some _, Some _ -> Ok { config with Config.transactional = true }
    | None, Some _ -> Ok { config with Config.fsync = true }
    | None, None -> Ok config
  in
  let* store = Session.Store.create ~config ?spec schema in
  (* Boot-time recovery and role assignment, before the socket opens:
     a leader replays its journal's committed state and stamps a fresh
     epoch; a follower recovers from its snapshot + journal tail. *)
  let* role, replica =
    match (follow, config.Config.journal) with
    | Some _, None -> assert false (* rejected above *)
    | Some _, Some journal ->
      let* replica =
        Replica.recover ?snapshot_every ~store ~journal ()
      in
      Ok (Protocol.Follower replica, Some replica)
    | None, Some journal ->
      let* () =
        if Sys.file_exists journal then
          let boot = Session.on_store store in
          let* replayed = Session.replay boot journal in
          (match replayed.Session.rep_torn with
           | Some what ->
             Fmt.epr "fds: warning: journal %s: %s@." journal what
           | None -> ());
          Ok ()
        else Ok ()
      in
      let* log = Replication.lead ~journal in
      Ok (Protocol.Leader log, None)
    | None, None -> Ok (Protocol.Standalone, None)
  in
  (* Monitors attach after recovery, so the replayed history does not
     re-fire events; from here every commit — a leader's client write
     or a follower's applied entry — advances them. A follower cannot
     reject entries the leader already committed, so enforcement
     downgrades to observation there. *)
  (match monitors with
   | None -> ()
   | Some (m, mode) ->
     let mode =
       match (mode, role) with
       | `Enforce, Protocol.Follower _ ->
         Fmt.epr
           "fds: warning: followers cannot enforce monitors (entries are \
            already committed on the leader); observing@.";
         `Observe
       | mode, _ -> mode
     in
     Session.Store.attach_monitors ~mode store m);
  let addr = address listen in
  (* a SIGKILLed predecessor leaves its Unix socket file behind; if
     nothing answers on it any more, reclaim the address *)
  (match listen with
   | `Unix path when Sys.file_exists path ->
     (match Client.connect addr with
      | Ok c -> Client.close c (* a live server owns it: bind will say so *)
      | Result.Error _ -> (try Unix.unlink path with Unix.Unix_error _ -> ()))
   | _ -> ());
  let sock = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  match Unix.bind sock addr with
  | exception Unix.Unix_error (err, _, _) ->
    Unix.close sock;
    Result.Error
      (io_error "cannot bind %s: %s" (describe listen) (Unix.error_message err))
  | () ->
    Unix.listen sock 128;
    let namespaces = Hashtbl.create 7 in
    (* the boot store is the "default" namespace: attach default is a
       no-op rebind, not a second store *)
    Hashtbl.add namespaces "default" store;
    let wake_r, wake_w = Unix.pipe () in
    Unix.set_nonblock wake_r;
    let server =
      {
        store;
        schema;
        spec;
        config;
        auth;
        max_queue = Stdlib.max 1 max_queue;
        role;
        sock;
        stop = Atomic.make false;
        queue = Queue.create ();
        qlock = Mutex.create ();
        qcond = Condition.create ();
        idle = ref [];
        wake_r;
        wake_w;
        namespaces;
        ns_lock = Mutex.create ();
        subscribers = Hashtbl.create 16;
        sub_lock = Mutex.create ();
        connections = Atomic.make 0;
        requests = Atomic.make 0;
      }
    in
    (* monitor events fan out to subscribed connections from the
       committing worker's publish phase *)
    (match Session.Store.monitors store with
     | Some _ ->
       (match
          Session.Store.on_monitor_events store (broadcast_events server)
        with
        | Ok () -> ()
        | Result.Error _ -> ())
     | None -> ());
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let on_signal = Sys.Signal_handle (fun _ -> request_stop server) in
    Sys.set_signal Sys.sigint on_signal;
    Sys.set_signal Sys.sigterm on_signal;
    (* workers record trace spans into their own domain-local
       collector; collect them with [Trace.isolated] and graft them
       into the main domain's trace after the join, the same dance
       {!Fdbs_kernel.Pool} does for its chunks *)
    let domains =
      List.init (max 1 workers) (fun _ ->
          Stdlib.Domain.spawn (fun () ->
              snd (Trace.isolated (worker server))))
    in
    let follower_domain =
      match (replica, follow) with
      | Some r, Some leader_listen ->
        let leader_addr = address leader_listen in
        let description = describe leader_listen in
        Some
          (Stdlib.Domain.spawn (fun () ->
               snd
                 (Trace.isolated (fun () ->
                      follow_loop server r leader_addr description))))
      | _ -> None
    in
    ready ();
    accept_loop server;
    request_stop server;
    List.iter (fun d -> Trace.graft (Stdlib.Domain.join d)) domains;
    (match follower_domain with
     | Some d -> Trace.graft (Stdlib.Domain.join d)
     | None -> ());
    (* workers are gone: close any connection parked after the
       dispatcher's final sweep, then the self-pipe *)
    List.iter (close_conn server) !(server.idle);
    server.idle := [];
    Unix.close wake_r;
    Unix.close wake_w;
    Unix.close sock;
    (match listen with
     | `Unix path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
     | `Tcp _ -> ());
    Ok
      {
        served_connections = Atomic.get server.connections;
        served_requests = Atomic.get server.requests;
      }
