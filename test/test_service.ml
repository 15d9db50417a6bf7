(* Tests for the session-based service layer: warm planner caches
   shared across session calls, transaction isolation between sessions
   over one store, serializable concurrent commits (two client domains
   against one store, checked against both serial reference orders),
   structured budget errors that leave the store alive, the wire
   protocol's framing and dispatch, and the client. *)

open Fdbs_kernel
open Fdbs_rpr
module Session = Fdbs_service.Session
module Protocol = Fdbs_service.Protocol

let v s = Value.Sym s

let guarded_src =
  {|
schema guarded

relation OFFERED(course)
relation TAKES(student, course)

constraint takes_offered: forall s:student. forall c:course. (TAKES(s, c) -> OFFERED(c))

proc initiate() =
  (OFFERED := {(c:course) | false} ; TAKES := {(s:student, c:course) | false})

proc offer(c: course) = insert OFFERED(c)

proc enroll_unchecked(s: student, c: course) = insert TAKES(s, c)

end-schema
|}

let schema = Rparser.schema_exn guarded_src
let db = Alcotest.testable Db.pp Db.equal

let session_exn ?config () =
  match Session.open_ ?config ~schema () with
  | Ok s -> s
  | Error e -> Alcotest.failf "open_ failed: %s" (Error.to_string e)

let run_exn s calls =
  match Session.run s calls with
  | Ok o -> o.Session.state
  | Error f -> Alcotest.failf "run failed: %s" (Error.to_string f.Session.fail_error)

(* --- planner cache stays warm across session calls --- *)

let test_planner_cache_warm () =
  let s = session_exn () in
  (* creation compiled every constraint and assignment already *)
  let h0, m0 = Planner.stats () in
  ignore (run_exn s [ ("initiate", []); ("offer", [ v "cs101" ]) ]);
  let h1, m1 = Planner.stats () in
  Alcotest.(check bool) "first batch hits the warm cache" true (h1 > h0);
  Alcotest.(check int) "no new plans compiled" m0 m1;
  (* a later batch re-evaluating the same assignments hits again;
     plain inserts never consult the planner, so route through initiate *)
  ignore (run_exn s [ ("initiate", []); ("offer", [ v "cs102" ]) ]);
  let h2, m2 = Planner.stats () in
  Alcotest.(check bool) "hits keep rising across calls" true (h2 > h1);
  Alcotest.(check int) "still no new plans" m1 m2

(* --- transaction isolation between sessions over one store --- *)

let test_txn_isolation () =
  let a = session_exn () in
  let b = Session.on_store (Session.store a) in
  (match Session.begin_txn a with
   | Ok () -> ()
   | Error e -> Alcotest.failf "begin: %s" (Error.to_string e));
  (match Session.run a [ ("offer", [ v "cs101" ]) ] with
   | Ok _ -> ()
   | Error f -> Alcotest.failf "txn run: %s" (Error.to_string f.Session.fail_error));
  let offered st = Relation.cardinal (Db.relation_exn st "OFFERED") in
  Alcotest.(check int) "A sees its uncommitted insert" 1 (offered (Session.db a));
  Alcotest.(check int) "B does not" 0 (offered (Session.db b));
  Alcotest.(check bool) "A is in a transaction" true (Session.in_txn a);
  (match Session.commit a with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "commit: %s" (Error.to_string e));
  Alcotest.(check int) "commit publishes to B" 1 (offered (Session.db b));
  (* a rolled-back transaction leaves no trace *)
  ignore (Session.begin_txn b);
  ignore (Session.run b [ ("offer", [ v "cs102" ]) ]);
  (match Session.rollback b with
   | Ok st -> Alcotest.(check int) "rollback restores the store" 1 (offered st)
   | Error e -> Alcotest.failf "rollback: %s" (Error.to_string e))

(* --- serializable concurrent commits (QCheck) --- *)

let call_gen =
  QCheck.Gen.(
    oneof
      [
        return ("initiate", []);
        map (fun c -> ("offer", [ v c ])) (oneofl [ "cs101"; "cs102" ]);
        map2
          (fun s c -> ("enroll_unchecked", [ v s; v c ]))
          (oneofl [ "ana"; "bob" ])
          (oneofl [ "cs101"; "cs102" ]);
      ])

let batch_gen = QCheck.Gen.(list_size (int_range 1 4) call_gen)

let pp_batch ppf calls =
  Fmt.(list ~sep:(any "; ") Journal.pp_call) ppf calls

let arbitrary_batches =
  QCheck.make
    ~print:(fun (a, b) -> Fmt.str "A=[%a] B=[%a]" pp_batch a pp_batch b)
    QCheck.Gen.(pair batch_gen batch_gen)

(* The reference model: apply the batch as one constraint-checked
   transaction; a rollback is the identity. *)
let serial_apply st batch =
  let domain =
    Domain.of_list
      [
        ("course", [ v "cs101"; v "cs102" ]);
        ("student", [ v "ana"; v "bob" ]);
      ]
  in
  let env = Semantics.env ~domain schema in
  let txn = Txn.make ~check_constraints:true env in
  match Txn.run txn batch st with Ok st' -> st' | Error rb -> rb.Txn.restored

let concurrent_commits_serializable =
  QCheck.Test.make ~name:"concurrent commits are serializable" ~count:25
    arbitrary_batches (fun (batch_a, batch_b) ->
      let config = Config.make ~check_constraints:true () in
      let a = session_exn ~config () in
      let b = Session.on_store (Session.store a) in
      let client s batch () =
        ignore (Session.begin_txn s);
        ignore (Session.run s batch);
        ignore (Session.commit s)
      in
      let da = Stdlib.Domain.spawn (client a batch_a) in
      let db_ = Stdlib.Domain.spawn (client b batch_b) in
      Stdlib.Domain.join da;
      Stdlib.Domain.join db_;
      let final = Session.db a in
      let empty = Schema.empty_db schema in
      let ab = serial_apply (serial_apply empty batch_a) batch_b in
      let ba = serial_apply (serial_apply empty batch_b) batch_a in
      Db.equal final ab || Db.equal final ba)

(* --- budget exhaustion is a structured error, not a crash --- *)

let test_budget_error () =
  let config = Config.make ~steps:1 () in
  let s = session_exn ~config () in
  (match Session.run s [ ("initiate", []); ("offer", [ v "cs101" ]) ] with
   | Ok _ -> Alcotest.fail "expected budget exhaustion"
   | Error f ->
     Alcotest.(check string)
       "structured budget code" "budget-steps"
       (Error.code_name f.Session.fail_error.Error.code));
  (* the store survives: state intact, the session keeps answering *)
  Alcotest.check db "state rolled to last good prefix" (Schema.empty_db schema)
    (Session.db s);
  (match Session.run s [ ("initiate", []) ] with
   | Ok _ -> Alcotest.fail "budget still armed"
   | Error f ->
     Alcotest.(check string)
       "every batch draws a fresh budget, same structured error" "budget-steps"
       (Error.code_name f.Session.fail_error.Error.code))

(* --- wire protocol: framing, dispatch, shutdown --- *)

(* Every frame [Protocol.Reader] parses from [rfd] up to its end, which
   it then closes; raises what the reader raises. *)
let frames_of_fd rfd =
  let r = Protocol.Reader.create rfd in
  let rec go acc =
    match Protocol.Reader.next r ~block:true with
    | `Frame p -> go (p :: acc)
    | `Eof | `Pending -> List.rev acc
  in
  Fun.protect ~finally:(fun () -> Unix.close rfd) (fun () -> go [])

(* The read end of a pipe holding [bytes], then EOF. *)
let pipe_of_string (bytes : string) =
  let rfd, wfd = Unix.pipe () in
  ignore (Unix.write_substring wfd bytes 0 (String.length bytes));
  Unix.close wfd;
  rfd

let read_all_from_string bytes = frames_of_fd (pipe_of_string bytes)

(* Frames written with [Protocol.output_frame], read back by the reader. *)
let roundtrip_frames payloads =
  let rfd, wfd = Unix.pipe () in
  let oc = Unix.out_channel_of_descr wfd in
  List.iter (Protocol.output_frame oc) payloads;
  close_out oc;
  frames_of_fd rfd

let test_protocol_frames () =
  let payloads = [ "{\"op\": \"ping\"}"; "{}"; String.make 300 'x' ] in
  Alcotest.(check (list string)) "frames round-trip" payloads
    (roundtrip_frames payloads)

let has_prefix ~affix s =
  String.length s >= String.length affix
  && String.sub s 0 (String.length affix) = affix

let handle_exn session src =
  match Protocol.request_of_string src with
  | Error (_, e) -> Alcotest.failf "bad request: %s" (Error.to_string e)
  | Ok req -> Protocol.handle session req

let test_protocol_dispatch () =
  let s = session_exn ~config:(Config.make ~transactional:true ()) () in
  (match handle_exn s {|{"id": 1, "op": "ping"}|} with
   | Protocol.Reply r ->
     Alcotest.(check string)
       "ping" {|{"id": 1, "ok": true, "result": "pong"}|} r
   | Protocol.Final _ -> Alcotest.fail "ping must not stop the server");
  (match
     handle_exn s {|{"id": 2, "op": "run", "calls": ["offer(cs101)"]}|}
   with
   | Protocol.Reply r ->
     Alcotest.(check bool) "run ok" true
       (has_prefix ~affix:{|{"id": 2, "ok": true|} r)
   | Protocol.Final _ -> Alcotest.fail "run must not stop the server");
  (match
     handle_exn s {|{"id": 3, "op": "query", "wff": "exists c:course. OFFERED(c)"}|}
   with
   | Protocol.Reply r ->
     Alcotest.(check string)
       "query sees the committed state" {|{"id": 3, "ok": true, "result": true}|} r
   | Protocol.Final _ -> Alcotest.fail "query must not stop the server");
  (match handle_exn s {|{"id": 4, "op": "nope"}|} with
   | Protocol.Reply r ->
     Alcotest.(check bool) "unknown op is a structured error" true
       (has_prefix ~affix:{|{"id": 4, "ok": false|} r)
   | Protocol.Final _ -> Alcotest.fail "unknown op must not stop the server");
  (match handle_exn s {|{"id": 5, "op": "shutdown"}|} with
   | Protocol.Final _ -> ()
   | Protocol.Reply _ -> Alcotest.fail "shutdown must stop the server")

(* The server renders a reply into the domain's render buffer and
   writes the frame straight from it. A write to a peer that has gone
   raises [Sys_error] inside that rendering; the buffer must go back to
   the domain's slot, and the next reply must render and frame
   correctly. *)
let test_render_slot_released () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let s = session_exn () in
  ignore (run_exn s [ ("initiate", []); ("offer", [ v "cs101" ]) ] : Db.t);
  let reply =
    match Protocol.request_of_string {|{"id": 1, "op": "state"}|} with
    | Ok req -> fst (Protocol.handle_obj s req)
    | Error _ -> Alcotest.fail "state request rejected"
  in
  let expected =
    {|{"id": 1, "ok": true, "result": {"relations": {"OFFERED": [["cs101"]], "TAKES": []}, "scalars": {}}}|}
  in
  (* the slot's buffer, identified by returning it (which the contract
     otherwise forbids) *)
  let slot_buffer () = Json.with_rendered Json.Null Fun.id in
  let held = slot_buffer () in
  let rfd, wfd = Unix.pipe () in
  Unix.close rfd;
  let gone = Unix.out_channel_of_descr wfd in
  (match
     Json.with_rendered reply (fun buf ->
         Protocol.output_buffer_frame gone buf;
         flush gone)
   with
   | () -> Alcotest.fail "a write to a closed pipe succeeded"
   | exception Sys_error _ -> ());
  close_out_noerr gone;
  Alcotest.(check bool) "render slot released" true (slot_buffer () == held);
  let rfd, wfd = Unix.pipe () in
  let oc = Unix.out_channel_of_descr wfd in
  Json.with_rendered reply (Protocol.output_buffer_frame oc);
  close_out oc;
  Alcotest.(check (list string)) "next reply renders and frames" [ expected ]
    (frames_of_fd rfd)

(* ------------------------------------------------------------------ *)
(* replication: leader log, follower replica, failover, convergence    *)
(* ------------------------------------------------------------------ *)

module Replication = Fdbs_rpr.Replication
module Replica = Fdbs_service.Replica

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

(* A fresh path that does not exist yet: journals and snapshots are
   created by their writers. *)
let temp_path name =
  let path = Filename.temp_file ("fds_" ^ name) ".journal" in
  Sys.remove path;
  path

(* Remove a journal and every file its machinery may leave next to it. *)
let with_journals names f =
  let paths = List.map temp_path names in
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm_all ();
      List.iter
        (fun p ->
          List.iter
            (fun q -> if Sys.file_exists q then Sys.remove q)
            [
              p;
              p ^ ".tmp";
              Replication.snapshot_path p;
              Replication.snapshot_path p ^ ".tmp";
            ])
        paths)
    (fun () -> f paths)

(* A leader: a journaled transactional session plus the leadership
   log over the same journal (stamps epoch 1). *)
let leader_exn journal =
  let log =
    match Replication.lead ~journal with
    | Ok log -> log
    | Error e -> Alcotest.failf "lead: %s" (Error.to_string e)
  in
  let config = Config.make ~transactional:true ~journal () in
  (session_exn ~config (), log)

let replica_exn ?snapshot_every journal =
  let config = Config.make ~transactional:true ~journal () in
  match Session.Store.create ~config schema with
  | Error e -> Alcotest.failf "store: %s" (Error.to_string e)
  | Ok store -> (
      match Replica.recover ?snapshot_every ~store ~journal () with
      | Ok r -> r
      | Error e -> Alcotest.failf "recover: %s" (Error.to_string e))

(* Drive the replica to the leader's last offset, the way the server's
   follow loop does: refresh, fetch, apply, repeat. Apply failures
   (armed faults) are retried — faults are one-shot. *)
let catch_up log replica =
  (match Replication.refresh log with
   | Ok () -> ()
   | Error e -> Alcotest.failf "refresh: %s" (Error.to_string e));
  let rec go guard =
    if guard = 0 then Alcotest.fail "catch-up did not converge";
    if Replica.applied replica < Replication.last_offset log then (
      (match Replication.entries_from log (Replica.applied replica) with
       | [] ->
         (* behind the leader's truncation base: install its snapshot *)
         (match
            Replication.load_snapshot ~schema
              (Replication.snapshot_path (Replication.path log))
          with
          | Ok (Some snap, _) ->
            (match Replica.install_snapshot replica snap with
             | Ok () -> ()
             | Error e -> Alcotest.failf "install: %s" (Error.to_string e))
          | _ -> Alcotest.fail "no entries and no leader snapshot")
       | entries -> ignore (Replica.apply replica entries));
      go (guard - 1))
  in
  go 1000

let follower_db replica = Session.db (Replica.session replica)

(* --- basic convergence: leader commits stream to the follower --- *)

let test_replication_convergence () =
  with_journals [ "conv_l"; "conv_f" ] @@ fun paths ->
  let lj, fj = match paths with [ a; b ] -> (a, b) | _ -> assert false in
  let leader, log = leader_exn lj in
  ignore (run_exn leader [ ("initiate", []); ("offer", [ v "cs101" ]) ]);
  ignore (run_exn leader [ ("offer", [ v "cs102" ]) ]);
  let r = replica_exn fj in
  catch_up log r;
  Alcotest.check db "follower state equals leader state" (Session.db leader)
    (follower_db r);
  Alcotest.(check int) "applied the whole history" 2 (Replica.applied r);
  Alcotest.(check int)
    "carries the leader's epoch" (Replication.epoch log) (Replica.epoch r)

(* --- writes on a follower are rejected as structured Read_only --- *)

let test_read_only_rejection () =
  with_journals [ "ro" ] @@ fun paths ->
  let fj = List.hd paths in
  let r = replica_exn fj in
  let role = Protocol.Follower r in
  let handle src =
    match Protocol.request_of_string src with
    | Error (_, e) -> Alcotest.failf "bad request: %s" (Error.to_string e)
    | Ok req -> (
        match Protocol.handle ~role (Replica.session r) req with
        | Protocol.Reply resp -> resp
        | Protocol.Final _ -> Alcotest.fail "must not stop the server")
  in
  Alcotest.(check string)
    "the exact structured Read_only JSON"
    {|{"id": 1, "ok": false, "error": {"phase": "exec", "code": "read-only", "message": "read-only replica: writes must go to the leader", "context": {"op": "run"}}}|}
    (handle {|{"id": 1, "op": "run", "calls": ["offer(cs101)"]}|});
  (* every write op is covered; reads still answer *)
  List.iter
    (fun op ->
      let resp = handle (Fmt.str {|{"id": 2, "op": %S}|} op) in
      Alcotest.(check bool)
        (op ^ " rejected as read-only") true
        (has_prefix ~affix:{|{"id": 2, "ok": false|} resp
        && contains ~sub:{|"code": "read-only"|} resp))
    [ "begin"; "commit"; "rollback"; "replay" ];
  Alcotest.(check string)
    "reads still served" {|{"id": 3, "ok": true, "result": false}|}
    (handle {|{"id": 3, "op": "query", "wff": "exists c:course. OFFERED(c)"}|})

(* --- a fetch from an epoch ahead of the leader is rejected --- *)

let test_stale_epoch_fetch () =
  with_journals [ "stale" ] @@ fun paths ->
  let lj = List.hd paths in
  let leader, log = leader_exn lj in
  ignore (run_exn leader [ ("initiate", []) ]);
  let fetch ~epoch =
    match Protocol.request_of_string (Protocol.fetch_request ~id:(Json.Num 1.) ~from:0 ~epoch) with
    | Error (_, e) -> Alcotest.failf "bad fetch: %s" (Error.to_string e)
    | Ok req -> (
        match Protocol.handle ~role:(Protocol.Leader log) leader req with
        | Protocol.Reply resp -> resp
        | Protocol.Final _ -> Alcotest.fail "fetch must not stop the server")
  in
  Alcotest.(check bool)
    "an up-to-date fetch streams the history" true
    (contains ~sub:{|"ok": true|} (fetch ~epoch:1));
  let stale = fetch ~epoch:5 in
  Alcotest.(check bool)
    "epoch ahead of the leader is a structured stale-epoch error" true
    (has_prefix ~affix:{|{"id": 1, "ok": false|} stale
    && contains ~sub:{|"code": "stale-epoch"|} stale);
  (* and a standalone server does not serve fetch at all *)
  (match
     Protocol.request_of_string
       (Protocol.fetch_request ~id:(Json.Num 2.) ~from:0 ~epoch:1)
   with
   | Error (_, e) -> Alcotest.failf "bad fetch: %s" (Error.to_string e)
   | Ok req -> (
       match Protocol.handle leader req with
       | Protocol.Reply resp ->
         Alcotest.(check bool)
           "standalone rejects fetch" true
           (contains ~sub:{|"ok": false|} resp)
       | Protocol.Final _ -> Alcotest.fail "fetch must not stop the server"))

(* --- a torn snapshot never loses data --- *)

let test_torn_snapshot_recovery () =
  with_journals [ "torn_l"; "torn_f" ] @@ fun paths ->
  let lj, fj = match paths with [ a; b ] -> (a, b) | _ -> assert false in
  let leader, log = leader_exn lj in
  ignore (run_exn leader [ ("initiate", []) ]);
  ignore (run_exn leader [ ("offer", [ v "cs101" ]) ]);
  ignore (run_exn leader [ ("offer", [ v "cs102" ]) ]);
  ignore (run_exn leader [ ("enroll_unchecked", [ v "ana"; v "cs101" ]) ]);
  (* the only snapshot boundary (applied = 4) hits the torn window:
     the fault fires between fsync and rename. The fault is one-shot,
     so the period must make this the single boundary. *)
  Fault.arm ~site:"replication.snapshot" Fault.Abort;
  let r = replica_exn ~snapshot_every:4 fj in
  catch_up log r;
  Alcotest.check db "the replica converged anyway" (Session.db leader)
    (follower_db r);
  Alcotest.(check bool)
    "no snapshot was installed" false
    (Sys.file_exists (Replication.snapshot_path fj));
  Alcotest.(check int) "so nothing was truncated behind one" 0
    (Replica.snapshot_offset r);
  (* a restart falls back to the full (untruncated) replay *)
  Fault.disarm_all ();
  let r2 = replica_exn ~snapshot_every:100 fj in
  Alcotest.check db "recovered from the full journal" (Session.db leader)
    (follower_db r2);
  Alcotest.(check int) "all four entries re-ran" 4 (Replica.recovered_entries r2);
  (* a torn snapshot *file* (no end terminator) is unusable, not fatal:
     recovery warns and replays the full journal *)
  let oc = open_out (Replication.snapshot_path fj) in
  output_string oc "fdbs-snapshot 1\nepoch 1\noffset 2\nrel OFFERED\nt cs101\n";
  close_out oc;
  let r3 = replica_exn ~snapshot_every:100 fj in
  Alcotest.check db "torn snapshot file falls back to full replay"
    (Session.db leader) (follower_db r3);
  Alcotest.(check int) "full history re-ran" 4 (Replica.recovered_entries r3)

(* --- recovery is bounded by the snapshot period --- *)

let test_bounded_recovery () =
  with_journals [ "bound_l"; "bound_f" ] @@ fun paths ->
  let lj, fj = match paths with [ a; b ] -> (a, b) | _ -> assert false in
  let leader, log = leader_exn lj in
  ignore (run_exn leader [ ("initiate", []) ]);
  List.iter
    (fun c -> ignore (run_exn leader [ ("offer", [ v c ]) ]))
    [ "cs1"; "cs2"; "cs3"; "cs4"; "cs5"; "cs6"; "cs7" ];
  let r = replica_exn ~snapshot_every:3 fj in
  catch_up log r;
  Alcotest.(check int) "eight entries applied" 8 (Replica.applied r);
  Alcotest.(check int) "snapshot at the last boundary" 6
    (Replica.snapshot_offset r);
  (* restart: only the tail past the snapshot re-runs *)
  let r2 = replica_exn ~snapshot_every:3 fj in
  Alcotest.(check int) "recovery replayed only the tail" 2
    (Replica.recovered_entries r2);
  Alcotest.(check bool) "bounded by the snapshot period" true
    (Replica.recovered_entries r2 <= 3);
  Alcotest.(check int) "at the right offset" 8 (Replica.applied r2);
  Alcotest.check db "with the right state" (Session.db leader) (follower_db r2)

(* --- QCheck: any interleaving of commits, catch-up rounds, follower
   restarts and injected faults converges to the leader's state --- *)

type repl_op =
  | Commit of Journal.call list
  | Sync  (** one fetch/apply round *)
  | Restart  (** crash the follower, recover from snapshot + tail *)
  | Fault_snapshot  (** arm the torn-snapshot window *)
  | Fault_apply  (** arm a one-shot apply failure *)

let pp_repl_op ppf = function
  | Commit calls -> Fmt.pf ppf "commit[%a]" pp_batch calls
  | Sync -> Fmt.string ppf "sync"
  | Restart -> Fmt.string ppf "restart"
  | Fault_snapshot -> Fmt.string ppf "fault-snapshot"
  | Fault_apply -> Fmt.string ppf "fault-apply"

let repl_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun b -> Commit b) batch_gen);
        (3, return Sync);
        (1, return Restart);
        (1, return Fault_snapshot);
        (1, return Fault_apply);
      ])

let arbitrary_repl_ops =
  QCheck.make
    ~print:(Fmt.str "%a" (Fmt.Dump.list pp_repl_op))
    QCheck.Gen.(list_size (int_range 1 12) repl_op_gen)

let replication_converges =
  QCheck.Test.make ~name:"replicated interleavings converge to leader state"
    ~count:20 arbitrary_repl_ops (fun ops ->
      with_journals [ "prop_l"; "prop_f" ] @@ fun paths ->
      let lj, fj =
        match paths with [ a; b ] -> (a, b) | _ -> assert false
      in
      let leader, log = leader_exn lj in
      let replica = ref (replica_exn ~snapshot_every:2 fj) in
      let sync_once () =
        ignore (Replication.refresh log);
        match Replication.entries_from log (Replica.applied !replica) with
        | [] -> ()
        | entries -> ignore (Replica.apply !replica entries)
      in
      List.iter
        (fun op ->
          match op with
          | Commit calls -> ignore (Session.run leader calls)
          | Sync -> sync_once ()
          | Restart -> replica := replica_exn ~snapshot_every:2 fj
          | Fault_snapshot -> Fault.arm ~site:"replication.snapshot" Fault.Abort
          | Fault_apply -> Fault.arm ~site:"replication.apply" Fault.Abort)
        ops;
      (* quiesce: disarm and drive the follower to the leader's offset *)
      Fault.disarm_all ();
      catch_up log !replica;
      let converged = Db.equal (Session.db leader) (follower_db !replica) in
      (* and a fresh replay of the leader's journal agrees too *)
      let fresh = session_exn ~config:(Config.make ~transactional:true ()) () in
      let replay_agrees =
        match Session.replay fresh lj with
        | Ok rep -> Db.equal rep.Session.rep_state (Session.db leader)
        | Error e -> Alcotest.failf "fresh replay: %s" (Error.to_string e)
      in
      converged && replay_agrees)

(* ------------------------------------------------------------------ *)
(* gateway: framing edge cases, batch, admission, tenancy              *)
(* ------------------------------------------------------------------ *)

(* the blank-header regression: stray newlines between frames used to
   read as end-of-stream and silently drop the rest of the pipeline *)
let test_blank_header_skipped () =
  Alcotest.(check (list string))
    "blank lines between frames are skipped" [ "abc"; "de" ]
    (read_all_from_string "3\nabc\n\n\n2\nde\n")

let test_oversized_frame_rejected () =
  match read_all_from_string "999999999\nx\n" with
  | _ -> Alcotest.fail "oversized frame must raise"
  | exception Error.Error e ->
    Alcotest.(check bool) "structured length error" true
      (contains ~sub:"bad frame length" e.Error.message)

let test_missing_trailing_newline () =
  (* tolerated at EOF... *)
  Alcotest.(check (list string))
    "missing newline at EOF tolerated" [ "abc" ]
    (read_all_from_string "3\nabc");
  (* ...but mid-stream the byte after the payload must be the newline *)
  match read_all_from_string "3\nabcX2\nde\n" with
  | _ -> Alcotest.fail "mid-stream missing newline must raise"
  | exception Error.Error e ->
    Alcotest.(check bool) "structured framing error" true
      (contains ~sub:"trailing newline" e.Error.message)

let test_reader_pipelines () =
  let rfd, wfd = Unix.pipe () in
  let r = Protocol.Reader.create rfd in
  let send s = ignore (Unix.write_substring wfd s 0 (String.length s)) in
  send "3\nabc\n\n2\nde\n";
  (match Protocol.Reader.next r ~block:true with
   | `Frame p -> Alcotest.(check string) "first frame" "abc" p
   | _ -> Alcotest.fail "expected the first frame");
  (match Protocol.Reader.next r ~block:false with
   | `Frame p ->
     Alcotest.(check string) "second frame drained without blocking" "de" p
   | _ -> Alcotest.fail "expected the buffered second frame");
  (match Protocol.Reader.next r ~block:false with
   | `Pending -> ()
   | _ -> Alcotest.fail "a drained pipeline must report pending");
  send "4\nwxyz" (* missing trailing newline, then EOF *);
  Unix.close wfd;
  (match Protocol.Reader.next r ~block:true with
   | `Frame p -> Alcotest.(check string) "newline tolerated at EOF" "wxyz" p
   | _ -> Alcotest.fail "expected the EOF-terminated frame");
  (match Protocol.Reader.next r ~block:true with
   | `Eof -> ()
   | _ -> Alcotest.fail "expected a clean EOF");
  Unix.close rfd

(* What the reader makes of [bytes] followed by EOF, one step at a time:
   each frame, then "<eof>" or the structured error that stopped it. *)
let reader_steps (bytes : string) =
  let rfd = pipe_of_string bytes in
  let r = Protocol.Reader.create rfd in
  let rec go acc =
    match Protocol.Reader.next r ~block:true with
    | `Frame p -> go (p :: acc)
    | `Eof | `Pending -> List.rev ("<eof>" :: acc)
    | exception Error.Error e -> List.rev (("<error: " ^ e.Error.message ^ ">") :: acc)
  in
  Fun.protect ~finally:(fun () -> Unix.close rfd) (fun () -> go [])

(* the EOF regression: non-blank bytes left at EOF without a newline
   used to read as a clean end of stream *)
let test_reader_eof_table () =
  List.iter
    (fun (tail, want) ->
      let input = "3\nabc\n" ^ tail in
      Alcotest.(check (list string)) (Fmt.str "%S" input) ("abc" :: want)
        (reader_steps input))
    [
      ("", [ "<eof>" ]);
      ("12", [ "<error: truncated frame at end of stream>" ]);
      ("5\nab", [ "<error: truncated frame at end of stream>" ]);
      ("  ", [ "<eof>" ]);
      ("xyz", [ {|<error: bad frame header "xyz": expected a length>|} ]);
      ("2\nde \n", [ "<error: frame missing trailing newline>" ]);
    ]

(* Byte streams that look like frames often enough to reach every
   branch of the parser: whole frames, bare lengths (also negative and
   oversized), blank lines and arbitrary bytes. *)
let arbitrary_frame_bytes =
  let fragment =
    QCheck.Gen.(
      oneof
        [
          map
            (fun p -> Fmt.str "%d\n%s\n" (String.length p) p)
            (string_size (int_range 0 8));
          map string_of_int (int_range (-3) 20);
          oneofl [ "16777217"; "99999999999999999999"; "\n"; " "; "\r\n" ];
          string_size (int_range 0 6);
        ])
  in
  QCheck.make ~print:(Fmt.str "%S")
    QCheck.Gen.(map (String.concat "") (list_size (int_range 0 8) fragment))

let reader_never_crashes =
  QCheck.Test.make ~name:"the frame reader ends every byte stream cleanly"
    ~count:500 arbitrary_frame_bytes (fun bytes ->
      (* every step consumes input or ends the stream, so a stream of n
         bytes takes at most n + 1 steps; anything but a structured
         error escaping fails the property *)
      List.length (reader_steps bytes) <= String.length bytes + 1)

(* Frames written with [output_frame] and delivered in random-sized
   chunks: the non-blocking reader sees every partial frame and still
   yields the payloads in order. *)
let chunked_frames_roundtrip =
  QCheck.Test.make ~name:"frames survive random write chunking" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 0 6) (string_of_size Gen.(int_range 0 40)))
        (list_of_size Gen.(int_range 1 8) (int_range 1 16)))
    (fun (payloads, cuts) ->
      let bytes =
        let rfd, wfd = Unix.pipe () in
        let oc = Unix.out_channel_of_descr wfd in
        List.iter (Protocol.output_frame oc) payloads;
        close_out oc;
        let ic = Unix.in_channel_of_descr rfd in
        Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)
      in
      let rfd, wfd = Unix.pipe () in
      let r = Protocol.Reader.create ~size:8 rfd in
      let got = ref [] in
      let rec drain ~block =
        match Protocol.Reader.next r ~block with
        | `Frame p ->
          got := p :: !got;
          drain ~block
        | `Eof | `Pending -> ()
      in
      let rec deliver pos cuts =
        if pos < String.length bytes then begin
          let n = Stdlib.min (List.hd cuts) (String.length bytes - pos) in
          ignore (Unix.write_substring wfd bytes pos n);
          drain ~block:false;
          deliver (pos + n) (List.tl cuts @ [ List.hd cuts ])
        end
      in
      deliver 0 cuts;
      Unix.close wfd;
      drain ~block:true;
      Unix.close rfd;
      List.rev !got = payloads)

(* Request decoding is total: JSON-ish fragments and arbitrary bytes
   come back as [Ok] or [Error], never as an exception. *)
let request_parsing_total =
  let fragment =
    QCheck.Gen.(
      oneof
        [
          oneofl
            [ "{"; "}"; "["; "]"; ":"; ","; {|"id"|}; {|"op"|}; {|"ping"|};
              {|"calls"|}; "1"; "-0.5e3"; "null"; "true"; {|"é"|}; {|"\"|} ];
          string_size (int_range 0 4);
        ])
  in
  QCheck.Test.make ~name:"request decoding never raises" ~count:500
    (QCheck.make ~print:(Fmt.str "%S")
       QCheck.Gen.(map (String.concat "") (list_size (int_range 0 12) fragment)))
    (fun src ->
      match Protocol.request_of_string src with Ok _ | Error _ -> true)

(* --- the client: retry, rpc, end of stream --- *)

module Client = Fdbs_service.Client
module Server = Fdbs_service.Server

let temp_sock name =
  let path = Filename.temp_file ("fds_" ^ name) ".sock" in
  Sys.remove path;
  path

let test_client_missing_socket () =
  match Client.connect ~retries:0 (Unix.ADDR_UNIX (temp_sock "missing")) with
  | Ok _ -> Alcotest.fail "nothing listens on a missing socket"
  | Error e ->
    Alcotest.(check string) "structured io error" "io-failure"
      (Error.code_name e.Error.code);
    Alcotest.(check bool) "names the reason" true
      (has_prefix ~affix:"cannot connect: " e.Error.message)

(* A server that binds only after the client's first attempt failed: the
   retrying connect reaches it, a ping round-trips, and the connection
   ends after the shutdown reply. *)
let test_client_retry_rpc_eof () =
  let sock = temp_sock "client" in
  let addr = Unix.ADDR_UNIX sock in
  let server =
    Stdlib.Domain.spawn (fun () ->
        Unix.sleepf 0.3;
        Server.serve ~workers:1 (`Unix sock) schema)
  in
  (match Client.connect ~retries:0 addr with
   | Ok _ -> Alcotest.fail "the server is not up yet"
   | Error _ -> ());
  (match Client.connect ~retries:8 addr with
   | Error e -> Alcotest.failf "retrying connect: %s" (Error.to_string e)
   | Ok c ->
     Alcotest.(check (option string))
       "rpc round-trips a ping" (Some {|{"id": 1, "ok": true, "result": "pong"}|})
       (Client.rpc c {|{"id": 1, "op": "ping"}|});
     Alcotest.(check bool) "shutdown is answered" true
       (Option.is_some (Client.rpc c {|{"id": 2, "op": "shutdown"}|}));
     Alcotest.(check (option string)) "then the stream ends" None (Client.recv c);
     Client.close c);
  match Stdlib.Domain.join server with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "serve: %s" (Error.to_string e)

(* the id-echo regression: malformed requests used to answer id: null
   even when the JSON parsed enough to carry the id *)
let test_error_id_echo () =
  (match Protocol.request_of_string {|{"id": 7, "nop": "ping"}|} with
   | Ok _ -> Alcotest.fail "missing op must be an error"
   | Error (id, e) ->
     Alcotest.(check string) "the id is echoed" "7" (Json.to_string id);
     Alcotest.(check bool) "op mentioned" true
       (contains ~sub:"op" e.Error.message));
  match Protocol.request_of_string "{nope" with
  | Ok _ -> Alcotest.fail "bad JSON must be an error"
  | Error (id, _) ->
    Alcotest.(check string) "null id when unparsable" "null" (Json.to_string id)

let test_batch_dispatch () =
  let s = session_exn ~config:(Config.make ~transactional:true ()) () in
  (match
     handle_exn s
       {|{"id": 9, "op": "batch", "requests": [{"id": 1, "op": "ping"}, {"id": 2, "op": "run", "calls": ["initiate()", "offer(cs101)"]}, {"id": 3, "op": "query", "wff": "exists c:course. OFFERED(c)"}]}|}
   with
   | Protocol.Final _ -> Alcotest.fail "batch must not stop the server"
   | Protocol.Reply r ->
     Alcotest.(check bool) "batch envelope ok" true
       (has_prefix ~affix:{|{"id": 9, "ok": true|} r);
     Alcotest.(check bool) "sub-responses carried in order" true
       (contains ~sub:{|{"id": 1, "ok": true, "result": "pong"}|} r);
     Alcotest.(check bool) "the query saw the run's commit" true
       (contains ~sub:{|{"id": 3, "ok": true, "result": true}|} r));
  (match
     handle_exn s
       {|{"id": 10, "op": "batch", "requests": [{"id": 1, "op": "batch", "requests": []}, {"id": 2, "op": "shutdown"}]}|}
   with
   | Protocol.Final _ -> Alcotest.fail "nested shutdown must not stop the server"
   | Protocol.Reply r ->
     Alcotest.(check bool) "envelope still ok" true
       (has_prefix ~affix:{|{"id": 10, "ok": true|} r);
     Alcotest.(check bool) "nesting rejected per item" true
       (contains ~sub:"not allowed inside a batch" r));
  match handle_exn s {|{"id": 11, "op": "batch"}|} with
  | Protocol.Final _ -> Alcotest.fail "empty batch must not stop the server"
  | Protocol.Reply r ->
    Alcotest.(check bool) "an empty batch is an error" true
      (has_prefix ~affix:{|{"id": 11, "ok": false|} r)

let test_batch_admission () =
  let s = session_exn () in
  let admitted = ref 0 in
  let admit () =
    incr admitted;
    if !admitted > 2 then
      Result.Error (Error.overloaded ~retry_after_s:0.5 "rate exceeded")
    else Ok ()
  in
  match
    Protocol.request_of_string
      {|{"id": 1, "op": "batch", "requests": [{"id": 1, "op": "ping"}, {"id": 2, "op": "ping"}, {"id": 3, "op": "ping"}]}|}
  with
  | Error (_, e) -> Alcotest.failf "bad request: %s" (Error.to_string e)
  | Ok req ->
    (match Protocol.handle ~admit s req with
     | Protocol.Final _ -> Alcotest.fail "batch must not stop the server"
     | Protocol.Reply r ->
       Alcotest.(check int) "each sub-request admitted once" 3 !admitted;
       Alcotest.(check bool) "first two served" true
         (contains ~sub:{|{"id": 1, "ok": true, "result": "pong"}|} r
         && contains ~sub:{|{"id": 2, "ok": true, "result": "pong"}|} r);
       Alcotest.(check bool) "third overloaded with a retry hint" true
         (contains ~sub:{|"code": "overloaded"|} r
         && contains ~sub:{|"retry-after-ms": "500"|} r))

let test_bucket () =
  let now = ref 0.0 in
  let b = Budget.Bucket.make ~clock:(fun () -> !now) ~rate:2.0 ~burst:2.0 () in
  Alcotest.(check bool) "burst admits" true (Budget.Bucket.take b 1.0 = Ok ());
  Alcotest.(check bool) "burst admits twice" true
    (Budget.Bucket.take b 1.0 = Ok ());
  (match Budget.Bucket.take b 1.0 with
   | Ok () -> Alcotest.fail "an empty bucket must reject"
   | Error wait ->
     Alcotest.(check (float 1e-6)) "retry hint is the refill time" 0.5 wait);
  now := !now +. 0.5;
  Alcotest.(check bool) "refills at the rate" true
    (Budget.Bucket.take b 1.0 = Ok ());
  (* post-charging actual spend can drive the bucket into debt *)
  Budget.Bucket.charge b 4.0;
  match Budget.Bucket.take b 0.0 with
  | Ok () -> Alcotest.fail "in debt even a free take must reject"
  | Error wait ->
    Alcotest.(check bool) "the debt must be paid off first" true (wait >= 1.9)

(* step-rate admission: a heavy first request is admitted (the bucket
   starts full) and its actual spend puts the store in debt, so the
   next requests are rejected with a structured Overloaded — reads
   included. Deterministic: paying off the debt takes seconds, the test
   runs in milliseconds. *)
let test_step_rate_overload () =
  let config = Config.make ~step_rate:1.0 () in
  let s = session_exn ~config () in
  ignore (run_exn s [ ("initiate", []); ("offer", [ v "cs101" ]) ]);
  (match Session.run s [ ("offer", [ v "cs102" ]) ] with
   | Ok _ -> Alcotest.fail "expected overload"
   | Error f ->
     Alcotest.(check string) "structured overloaded" "overloaded"
       (Error.code_name f.Session.fail_error.Error.code);
     Alcotest.(check bool) "carries a retry hint" true
       (List.mem_assoc "retry-after-ms" f.Session.fail_error.Error.context));
  match Session.query s "exists c:course. OFFERED(c)" with
  | Ok _ -> Alcotest.fail "reads are metered by the same bucket"
  | Error e ->
    Alcotest.(check string) "query overloaded too" "overloaded"
      (Error.code_name e.Error.code)

(* the multi-tenant substrate: independent stores over one schema share
   the planner cache (plan keys mix the schema fingerprint) while their
   states stay isolated *)
let test_store_planner_sharing () =
  let a = session_exn () in
  let _, m0 = Planner.stats () in
  let b = session_exn () in
  let _, m1 = Planner.stats () in
  Alcotest.(check int) "a second identical-schema store compiles nothing" m0 m1;
  ignore (run_exn a [ ("initiate", []); ("offer", [ v "cs101" ]) ]);
  let offered st = Relation.cardinal (Db.relation_exn st "OFFERED") in
  Alcotest.(check int) "writes land in A" 1 (offered (Session.db a));
  Alcotest.(check int) "and are invisible in B" 0 (offered (Session.db b))

let arbitrary_batch_requests =
  let sub_gen =
    QCheck.Gen.(
      oneof
        [
          map
            (fun id ->
              Json.Obj
                [ ("id", Json.Num (float_of_int id)); ("op", Json.Str "ping") ])
            (int_bound 100);
          map
            (fun w ->
              Json.Obj
                [
                  ("id", Json.Str w);
                  ("op", Json.Str "query");
                  ("wff", Json.Str "exists c:course. OFFERED(c)");
                ])
            (oneofl [ "a"; "b"; "c" ]);
          map
            (fun c ->
              Json.Obj
                [
                  ("op", Json.Str "run");
                  ("calls", Json.Arr [ Json.Str (Fmt.str "offer(%s)" c) ]);
                ])
            (oneofl [ "cs101"; "cs102" ]);
        ])
  in
  QCheck.make
    ~print:(fun reqs -> Json.to_string (Json.Arr reqs))
    QCheck.Gen.(list_size (int_range 1 8) sub_gen)

let batch_frames_roundtrip =
  QCheck.Test.make ~name:"random batch frames round-trip the framing layer"
    ~count:50 arbitrary_batch_requests (fun reqs ->
      let payload =
        Json.to_string
          (Json.Obj
             [
               ("id", Json.Num 1.);
               ("op", Json.Str "batch");
               ("requests", Json.Arr reqs);
             ])
      in
      match roundtrip_frames [ payload; payload ] with
      | [ p1; p2 ] ->
        p1 = payload && p2 = payload
        && (match Protocol.request_of_string p1 with
            | Ok req ->
              req.Protocol.op = "batch"
              && (match Json.field "requests" req.Protocol.body with
                 | Some (Json.Arr items) ->
                   List.length items = List.length reqs
                 | _ -> false)
            | Error _ -> false)
      | _ -> false)

(* The tree-building state encoder the streamed [Protocol.db_to_json]
   replaced, kept as its reference: the streamed bytes must equal this
   tree's rendering. *)
let reference_db_to_json (db : Db.t) : Json.t =
  let value_to_json : Value.t -> Json.t = function
    | Value.Bool b -> Json.Bool b
    | Value.Int n -> Json.Num (float_of_int n)
    | Value.Sym s -> Json.Str s
  in
  let rel (name, r) =
    ( name,
      Json.Arr
        (List.map
           (fun tuple -> Json.Arr (List.map value_to_json tuple))
           (Relation.to_list r)) )
  in
  let scalar (name, v) = (name, value_to_json v) in
  Json.Obj
    [
      ("relations", Json.Obj (List.map rel (Db.relations db)));
      ("scalars", Json.Obj (List.map scalar (Db.scalars db)));
    ]

(* Random states: symbols holding quotes, backslashes, control and high
   bytes; ints around zero, negative, and past the exact-print range;
   bools; empty relations and none; scalars and none. *)
let random_encoding_db =
  let open QCheck.Gen in
  let sym =
    string_size ~gen:(oneof [ printable; oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\027'; '\255' ] ])
      (int_range 0 6)
  in
  let value =
    oneof
      [
        map (fun s -> Value.Sym s) sym;
        map (fun n -> Value.Int n) (int_range (-1000) 1000);
        map (fun n -> Value.Int n)
          (oneofl [ 0; -1; max_int; min_int; 999_999_999_999_999; 1_000_000_000_000_000; -1_000_000_000_000_000 ]);
        map (fun b -> Value.Bool b) bool;
      ]
  in
  let relation =
    let* arity = int_range 1 3 in
    let* tuples = list_size (int_range 0 5) (list_repeat arity value) in
    return (Relation.of_list (List.init arity (fun _ -> "s")) tuples)
  in
  let* rels = list_size (int_range 0 3) (pair sym relation) in
  let* scalars = list_size (int_range 0 3) (pair sym value) in
  let db = List.fold_left (fun db (n, r) -> Db.with_relation n r db) Db.empty rels in
  return (List.fold_left (fun db (n, v) -> Db.with_scalar n v db) db scalars)

let streamed_encoding_matches_tree =
  QCheck.Test.make ~name:"streamed state encoding equals the tree" ~count:300
    (QCheck.make ~print:(Fmt.str "%a" Db.pp) random_encoding_db)
    (fun db ->
      let streamed = Json.to_string (Protocol.db_to_json db) in
      String.equal streamed (Json.to_string (reference_db_to_json db))
      && String.equal
           (Protocol.ok_response ~id:(Json.Num 7.)
              (Json.Obj [ ("completed", Json.Num 1.); ("state", Protocol.db_to_json db) ]))
           (Protocol.ok_response ~id:(Json.Num 7.)
              (Json.Obj [ ("completed", Json.Num 1.); ("state", reference_db_to_json db) ])))

let suite =
  [
    Alcotest.test_case "planner cache stays warm across session calls" `Quick
      test_planner_cache_warm;
    Alcotest.test_case "transactions are isolated between sessions" `Quick
      test_txn_isolation;
    Alcotest.test_case "budget exhaustion is structured and survivable" `Quick
      test_budget_error;
    Alcotest.test_case "protocol frames round-trip" `Quick test_protocol_frames;
    Alcotest.test_case "protocol dispatch over a session" `Quick
      test_protocol_dispatch;
    Alcotest.test_case "a failed reply write releases the render slot" `Quick
      test_render_slot_released;
    Alcotest.test_case "replication: follower converges on the leader" `Quick
      test_replication_convergence;
    Alcotest.test_case "replication: follower rejects writes as read-only"
      `Quick test_read_only_rejection;
    Alcotest.test_case "replication: stale-epoch fetch is rejected" `Quick
      test_stale_epoch_fetch;
    Alcotest.test_case "replication: torn snapshot never loses data" `Quick
      test_torn_snapshot_recovery;
    Alcotest.test_case "replication: recovery is snapshot-bounded" `Quick
      test_bounded_recovery;
    Alcotest.test_case "framing: blank header lines are skipped" `Quick
      test_blank_header_skipped;
    Alcotest.test_case "framing: oversized frames are rejected" `Quick
      test_oversized_frame_rejected;
    Alcotest.test_case "framing: trailing newline required mid-stream" `Quick
      test_missing_trailing_newline;
    Alcotest.test_case "framing: the reader drains pipelines" `Quick
      test_reader_pipelines;
    Alcotest.test_case "framing: only blank bytes may end a stream" `Quick
      test_reader_eof_table;
    Alcotest.test_case "client: a missing socket is a structured error" `Quick
      test_client_missing_socket;
    Alcotest.test_case "client: retry, rpc, end of stream after shutdown"
      `Quick test_client_retry_rpc_eof;
    Alcotest.test_case "protocol: error replies echo the request id" `Quick
      test_error_id_echo;
    Alcotest.test_case "protocol: batch dispatch" `Quick test_batch_dispatch;
    Alcotest.test_case "protocol: batch admits per sub-request" `Quick
      test_batch_admission;
    Alcotest.test_case "admission: token bucket takes, waits, and debts" `Quick
      test_bucket;
    Alcotest.test_case "admission: step-rate overload is structured" `Quick
      test_step_rate_overload;
    Alcotest.test_case "tenancy: stores share plans, isolate state" `Quick
      test_store_planner_sharing;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        concurrent_commits_serializable;
        replication_converges;
        batch_frames_roundtrip;
        reader_never_crashes;
        chunked_frames_roundtrip;
        request_parsing_total;
        streamed_encoding_matches_tree;
      ]
