(* The traced run: replay each workload's generated request stream
   in-process and time the public function of every layer around it,
   with {!Fdbs_kernel.Trace} spans recorded from this file only. The
   spans are written out as a Chrome trace at the end and the per-layer
   metrics are read back from that file.

   Per request, the component calls run first, on the same before state
   the envelope will see, and never fire publish thunks; then one real
   operation changes the store. For commits that real operation is
   [Protocol.handle] on half the pairs and [Session.run] on the other
   half, so both envelopes are timed on the same stream. [Txn.run] is
   timed in a second replay that threads the state itself, run twice
   with spans off and twice with spans on to measure the tracing
   overhead. *)

open Fdbs_kernel
open Fdbs_rpr
module Protocol = Fdbs_service.Protocol
module Session = Fdbs_service.Session

exception Mismatch of string

let mismatch fmt = Fmt.kstr (fun m -> raise (Mismatch m)) fmt

let ok what = function
  | Ok v -> v
  | Error e -> mismatch "%s: %s" what (Error.to_string e)

let cat = "perfbench"

(* Every span carries the replay it belongs to ([w]) and the class of
   its request ([k]: read, commit or setup). *)
let span ~tag ?(k = "setup") name f =
  Trace.with_span ~cat ~args:[ ("w", tag); ("k", k) ] name f

let requests ~seed (p : Gen.params) count : (Gen.request * Gen.expect) list =
  let store = Gen.store ~seed p in
  let streams = Array.init p.Gen.conns (Gen.stream ~seed store p) in
  let acc = ref [] in
  for i = 0 to count - 1 do
    acc := Gen.next streams.(i mod p.Gen.conns) :: !acc
  done;
  List.rev !acc

let syms = List.map (fun a -> Value.Sym a)

let query_params req =
  let wff, params = Gen.wff_of req in
  (wff, List.map (fun (n, s, v) -> (n, s, Value.Sym v)) params)

(* --- recovery --- *)

type ctx = {
  tag : string;
  p : Gen.params;
  schema : Schema.t;
  files : E2e.files;
  db0 : Db.t;
  domain0 : Domain.t;
  store : Session.Store.t;
  session : Session.t;
  events : int ref;  (** violation events the store's sink received *)
}

let monitor_of files schema =
  ok "monitors" (Monitor.of_file ~schema files.E2e.theory_file)

let recover ~root ~seed ~tag (p : Gen.params) : ctx =
  let files, schema, _ = E2e.prepare ~root ~seed p in
  let span n f = span ~tag n f in
  let db0 =
    span "replication.snapshot_load" (fun () ->
        match
          Replication.load_snapshot ~schema
            (Replication.snapshot_path files.E2e.journal)
        with
        | Ok (Some s, _) -> s.Replication.snap_db
        | Ok (None, why) ->
          mismatch "snapshot unusable: %s" (Option.value why ~default:"missing")
        | Error e -> mismatch "snapshot: %s" (Error.to_string e))
  in
  let domain0 = span "relation.active_domain" (fun () -> Db.active_domain db0) in
  let config =
    Config.make ~transactional:true ~check_constraints:true
      ~journal:files.E2e.journal ~fsync:true ()
  in
  let store = ok "store" (Session.Store.create ~config schema) in
  let session = Session.on_store store in
  let replayed =
    span "session.replay" (fun () ->
        ok "replay" (Session.replay session files.E2e.journal))
  in
  if not (Db.equal replayed.Session.rep_state db0) then
    mismatch "recovered state differs from the snapshot";
  let events = ref 0 in
  (match p.Gen.kind with
  | Gen.Monitor_mix ->
    Session.Store.attach_monitors store (monitor_of files schema);
    ok "sink"
      (Session.Store.on_monitor_events store (fun evs ->
           events := !events + List.length evs))
  | _ -> ());
  { tag; p; schema; files; db0; domain0; store; session; events }

(* --- the envelope replay --- *)

type tally = {
  mutable reply_bytes : int list;
  mutable commit_reply_bytes : int list;
  mutable journal_bytes : int list;
  mutable check_events : int;  (** events Monitor.check reported *)
  mutable commits : int;
  mutable retracts : int;
}

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let domain_add (schema : Schema.t) domain (name, args) =
  match Schema.find_proc schema name with
  | None -> mismatch "unknown procedure %s" name
  | Some proc ->
    List.fold_left2
      (fun d (_, srt) v -> Domain.add srt (v :: Domain.carrier d srt) d)
      domain proc.Schema.pparams args

(* The relation a call writes and the tuple it writes. *)
let written = function
  | ("enroll" | "leave"), args -> ("TAKES", args)
  | ("offer" | "retract"), args -> ("OFFERED", args)
  | name, _ -> mismatch "no written relation known for %s" name

let envelope_replay ~warm (c : ctx) reqs : tally =
  let t =
    { reply_bytes = []; commit_reply_bytes = []; journal_bytes = []; check_events = 0; commits = 0; retracts = 0 }
  in
  let scratch = Filename.concat c.files.E2e.dir "components.journal" in
  let schema = c.schema in
  let monitor = Session.Store.monitors c.store in
  List.iteri
    (fun i (req, expect) ->
      Trace.set_enabled (i >= warm);
      let id = i + 1 in
      let k = if Gen.is_read req then "read" else "commit" in
      let span n f = span ~tag:c.tag ~k n f in
      let decoded =
        span "protocol.decode" (fun () ->
            Protocol.request_of_string (Gen.frame ~id req))
      in
      let r =
        match decoded with Ok r -> r | Error _ -> mismatch "request %d does not decode" id
      in
      let jid = Json.Num (float_of_int id) in
      let before, domain = Session.Store.snapshot c.store in
      match req with
      | Gen.Point _ | Gen.Exists _ ->
        let wff, params = query_params req in
        let decls = List.map (fun (n, s, _) -> (n, s)) params in
        let binds = List.map (fun (n, _, v) -> (n, v)) params in
        let f = span "rparser.wff" (fun () -> ok "wff" (Rparser.wff ~params:decls schema wff)) in
        let env = Semantics.env ~consts:binds ~domain schema in
        let b = span "planner.eval" (fun () -> Semantics.query env before f) in
        if Gen.Answer b <> expect then mismatch "request %d: wrong answer %b" id b;
        let b' = span "session.query" (fun () -> ok "query" (Session.query c.session ~params wff)) in
        if b' <> b then mismatch "request %d: Session.query disagrees" id;
        let reply = span "protocol.encode" (fun () -> Protocol.ok_response ~id:jid (Json.Bool b)) in
        t.reply_bytes <- String.length reply :: t.reply_bytes;
        (match span "protocol.handle" (fun () -> Protocol.handle c.session r) with
        | Protocol.Reply s when s = reply -> ()
        | _ -> mismatch "request %d: reply differs from the model" id)
      | Gen.Call (name, args) ->
        let call = (name, syms args) in
        let domain = span "domain.add" (fun () -> domain_add schema domain call) in
        let env = Semantics.env ~domain schema in
        let after =
          span "semantics.call" (fun () -> ok "call" (Semantics.call_det env name (snd call) before))
        in
        (* the first probe of a freshly written relation, on a copy of
           the write the envelope will make *)
        let rel, tuple = written call in
        let r0 = Db.relation_exn before rel in
        let r1 =
          if name = "enroll" || name = "offer" then Relation.add tuple r0
          else Relation.remove tuple r0
        in
        span "relation.first_probe" (fun () -> ignore (Relation.mem tuple r1));
        let delta = span "delta.of_dbs" (fun () -> Delta.of_dbs ~before ~after) in
        span "txn.check" (fun () ->
            List.iter
              (fun (cname, wff) ->
                let v, _publish = Semantics.query_delta env ~before ~delta after wff in
                if not v then mismatch "request %d: constraint %s fails" id cname)
              schema.Schema.constraints);
        Option.iter
          (fun m ->
            let evs, _publish =
              span "monitor.check" (fun () -> Monitor.check m ~domain ~before ~after)
            in
            t.check_events <- t.check_events + List.length evs)
          monitor;
        let size0 = file_size scratch in
        span "journal.append" (fun () ->
            ok "journal" (Journal.append ~fsync:true scratch { Journal.calls = [ call ] }));
        t.journal_bytes <- (file_size scratch - size0) :: t.journal_bytes;
        let reply =
          span "protocol.encode" (fun () ->
              Protocol.ok_response ~id:jid
                (Json.Obj
                   [ ("completed", Json.Num 1.); ("state", Protocol.db_to_json after) ]))
        in
        t.commit_reply_bytes <- String.length reply :: t.commit_reply_bytes;
        if t.commits / 2 mod 2 = 0 then (
          match span "protocol.handle" (fun () -> Protocol.handle c.session r) with
          | Protocol.Reply s when s = reply -> ()
          | _ -> mismatch "request %d: commit reply differs from the model" id)
        else (
          match span "session.run" (fun () -> Session.run c.session [ call ]) with
          | Ok o when Db.equal o.Session.state after -> ()
          | _ -> mismatch "request %d: Session.run state differs" id);
        t.commits <- t.commits + 1;
        if Gen.is_retract req then t.retracts <- t.retracts + 1)
    reqs;
  Trace.set_enabled false;
  if !(c.events) <> t.retracts then
    mismatch "%s: %d violation events for %d retracts" c.tag !(c.events) t.retracts;
  t

(* --- the transaction-level replay --- *)

(* The same stream with the state threaded here: reads through
   [Rparser.wff] + [Semantics.query], commits through [Txn.run] with
   the server's configuration. Returns the per-request wall times after
   the warm-up. *)
let txn_replay ~warm ~traced (c : ctx) reqs : float list =
  Trace.set_enabled false;
  let schema = c.schema in
  let scratch = Filename.concat c.files.E2e.dir "txn.journal" in
  let state = ref c.db0 and domain = ref c.domain0 in
  let on_commit =
    match c.p.Gen.kind with
    | Gen.Monitor_mix ->
      let m = monitor_of c.files schema in
      Monitor.attach m c.db0;
      Some
        (fun ~before ~after ->
          let _events, publish = Monitor.check m ~domain:!domain ~before ~after in
          Ok publish)
    | _ -> None
  in
  let times = ref [] in
  List.iteri
    (fun i (req, _) ->
      if i = warm then Trace.set_enabled traced;
      let t0 = Mclock.now () in
      (match req with
      | Gen.Point _ | Gen.Exists _ ->
        let wff, params = query_params req in
        let decls = List.map (fun (n, s, _) -> (n, s)) params in
        let binds = List.map (fun (n, _, v) -> (n, v)) params in
        span ~tag:c.tag ~k:"read" "replay.read" (fun () ->
            let f = ok "wff" (Rparser.wff ~params:decls schema wff) in
            ignore (Semantics.query (Semantics.env ~consts:binds ~domain:!domain schema) !state f))
      | Gen.Call (name, args) ->
        let call = (name, syms args) in
        domain := domain_add schema !domain call;
        let env = Semantics.env ~domain:!domain schema in
        let txn =
          Txn.make ~check_constraints:true ~journal:scratch ~fsync:true ?on_commit env
        in
        (match span ~tag:c.tag ~k:"commit" "txn.run" (fun () -> Txn.run txn [ call ] !state) with
        | Ok s -> state := s
        | Error rb -> mismatch "Txn.run: %a" Txn.pp_rollback rb));
      if i >= warm then times := (Mclock.now () -. t0) :: !times)
    reqs;
  Trace.set_enabled false;
  !times

(* --- one workload --- *)

type replayed = {
  r_tag : string;
  r_p : Gen.params;
  tally : tally;
  overhead : float;  (** spans on vs off, as a share of off *)
  requests : int;
}

let replay ~root ~seed ~tag ~count (p : Gen.params) : replayed =
  (* one root span per replay: the trace keeps a bounded ring of
     roots, so every request span must nest under it *)
  Trace.set_enabled true;
  span ~tag ~k:"phase" "replay" @@ fun () ->
  let c = recover ~root ~seed ~tag p in
  let warm = 8 in
  let reqs = requests ~seed p count in
  let tally = envelope_replay ~warm c reqs in
  (* ABBA, so drift over the four passes cancels *)
  let off1 = txn_replay ~warm ~traced:false c reqs in
  let on1 = txn_replay ~warm ~traced:true c reqs in
  let on2 = txn_replay ~warm ~traced:true c reqs in
  let off2 = txn_replay ~warm ~traced:false c reqs in
  let med xs = Stats.median_of xs in
  E2e.rm_rf c.files.E2e.dir;
  {
    r_tag = tag;
    r_p = p;
    tally;
    overhead = (med (on1 @ on2) /. med (off1 @ off2)) -. 1.;
    requests = count;
  }

(* --- reading the spans back --- *)

(* (workload tag, request class, span name) -> durations in µs *)
let read_spans file : (string * string * string, float list) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  let events =
    Option.value ~default:[]
      (Option.bind (Json.field "traceEvents" (Json.parse_file file)) Json.to_list_opt)
  in
  List.iter
    (fun ev ->
      let str f o = Option.bind (Json.field f o) Json.to_string_opt in
      match (str "cat" ev, str "name" ev, Json.field "dur" ev, Json.field "args" ev) with
      | Some c, Some name, Some (Json.Num dur), Some args when c = cat -> (
        match (str "w" args, str "k" args) with
        | Some w, Some k ->
          let key = (w, k, name) in
          Hashtbl.replace tbl key
            (dur :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
        | _ -> ())
      | _ -> ())
    events;
  tbl

(* --- per-layer metrics --- *)

let commit_components = [ "domain.add"; "semantics.call"; "delta.of_dbs"; "txn.check"; "monitor.check"; "journal.append"; "protocol.encode" ]
let read_components = [ "rparser.wff"; "planner.eval"; "protocol.encode" ]
(* What [Session.run] does beside encoding: the commit components
   without [protocol.encode]. *)
let session_components = [ "domain.add"; "semantics.call"; "delta.of_dbs"; "txn.check"; "monitor.check"; "journal.append" ]

(* The commit-path metrics the size sweep repeats at n = 2,000. *)
let sweep_metrics =
  [
    "protocol.handle_us"; "protocol.encode_us"; "protocol.reply_bytes";
    "session.run_us"; "domain.add_us"; "relation.first_probe_us";
    "semantics.call_us"; "delta.of_dbs_us"; "txn.check_us"; "txn.run_us";
    "journal.append_us"; "replication.snapshot_load_us";
    "relation.active_domain_us"; "session.replay_us";
  ]

let median_int xs = Stats.median_of (List.map float_of_int xs)

(* [e2e] is the short end-to-end run of the same workload: the server's
   own stats and the end-to-end median the wire time is derived from. *)
let metrics tbl (r : replayed) ~(e2e : E2e.outcome option) : Stats.metric list =
  let tag = r.r_tag in
  let find k name = Option.value ~default:[] (Hashtbl.find_opt tbl (tag, k, name)) in
  let med k name = Stats.median_of (find k name) in
  let has k name = find k name <> [] in
  let m name unit_ value = { Stats.name; value; unit_ } in
  let us name v = m (name ^ "_us") "us" v in
  let t = r.tally in
  let commits = t.commits > 0 in
  let reads = has "read" "protocol.handle" in
  let cls, comps =
    if commits then ("commit", commit_components) else ("read", read_components)
  in
  let sum k names = List.fold_left (fun acc n -> if has k n then acc +. med k n else acc) 0. names in
  let handle_cls = med cls "protocol.handle" in
  let attributed = sum cls comps in
  let common =
    [
      us "protocol.decode" (med cls "protocol.decode");
      us "protocol.encode" (med cls "protocol.encode");
      m "protocol.reply_bytes" "bytes" (median_int (if commits then t.commit_reply_bytes else t.reply_bytes));
      us "protocol.handle" handle_cls;
      m "protocol.attributed_frac" "ratio" (attributed /. handle_cls);
      us "protocol.unattributed" (handle_cls -. attributed);
      us "replication.snapshot_load" (med "setup" "replication.snapshot_load");
      us "relation.active_domain" (med "setup" "relation.active_domain");
      us "session.replay" (med "setup" "session.replay");
      m "trace.overhead_frac" "ratio" r.overhead;
    ]
  in
  let server =
    match e2e with
    | None -> []
    | Some o ->
      let stats = o.E2e.stats in
      let top f = float_of_int (Option.value ~default:0 (Option.bind (Json.field f stats) Json.to_int_opt)) in
      let ctr f = float_of_int (E2e.counter_of stats f) in
      let ratio hit total = if total > 0. then hit /. total else nan in
      [
        us "server.wire"
          (Stats.quantile (if commits then o.E2e.commits else o.E2e.reads) 0.5 -. handle_cls);
        m "server.refused" "count" (float_of_int (E2e.refused stats));
        m "planner.cache_hit_ratio" "ratio"
          (ratio (top "planner_hits") (top "planner_hits" +. top "planner_misses"));
      ]
      @
      if commits then
        [
          m "planner.delta_hit_ratio" "ratio"
            (ratio (ctr "planner.delta_hit")
               (ctr "planner.delta_hit" +. ctr "planner.delta_miss"
               +. ctr "planner.delta_fallback"));
        ]
      else []
  in
  let read_layers =
    if reads then
      [
        us "session.query" (med "read" "session.query");
        us "rparser.wff" (med "read" "rparser.wff");
        us "planner.eval" (med "read" "planner.eval");
      ]
    else []
  in
  let commit_layers =
    if commits then
      let c = med "commit" in
      [
        us "session.run" (c "session.run");
        us "domain.add" (c "domain.add");
        us "relation.first_probe" (c "relation.first_probe");
        us "semantics.call" (c "semantics.call");
        us "delta.of_dbs" (c "delta.of_dbs");
        us "txn.check" (c "txn.check");
        us "txn.run" (c "txn.run");
        us "journal.append" (c "journal.append");
        m "journal.bytes_per_commit" "bytes" (median_int t.journal_bytes);
        us "session.unattributed" (c "session.run" -. sum "commit" session_components);
      ]
    else []
  in
  let monitor_layers =
    if has "commit" "monitor.check" then
      [
        us "monitor.check" (med "commit" "monitor.check");
        m "monitor.events_per_commit" "count"
          (float_of_int t.check_events /. float_of_int (max 1 t.commits));
      ]
    else []
  in
  common @ server @ read_layers @ commit_layers @ monitor_layers
