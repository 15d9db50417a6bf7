(** Atomic transactions over {!Semantics}: snapshot, run a sequence of
    procedure calls under a resource budget, check the schema's
    integrity constraints at commit time, and roll back to the snapshot
    on violation, blocked execution, budget exhaustion, or an injected
    fault — returning a structured {!Fdbs_kernel.Error.t} instead of a
    string exception. This is the paper's central promise made
    operational: every update leaves the database in a valid state
    (static/transition consistency, Sections 3–5), because invalid
    outcomes never become visible.

    Committed transactions are optionally recorded in a write-ahead
    {!Journal}; {!replay} reproduces the committed state from it. *)

open Fdbs_kernel

type t = {
  txn_env : Semantics.env;
  check_constraints : bool;
  extra_constraints : (string * Fdbs_logic.Formula.t) list;
      (** additional closed wffs checked at commit beside the schema's
          own — e.g. the L1 theory's static constraints carried down
          through the refinement interpretation *)
  journal : string option;  (** journal file path *)
  fsync : bool;  (** fsync journal appends (power-loss durability) *)
  on_commit :
    (before:Db.t -> after:Db.t -> ((unit -> unit), Error.t) result) option;
      (** commit hook (streaming monitors): run after constraints pass,
          before the journal append; its publish thunk fires with the
          constraint materializations', an [Error] rolls back *)
}

let make ?(check_constraints = true) ?(extra_constraints = []) ?journal
    ?(fsync = false) ?on_commit env =
  { txn_env = env; check_constraints; extra_constraints; journal; fsync; on_commit }

(** A rolled-back transaction: the structured error and the restored
    pre-transaction state (always [Db.equal] to the snapshot). *)
type rollback = { error : Error.t; restored : Db.t }

let pp_rollback ppf (r : rollback) =
  Fmt.pf ppf "rolled back: %a" Error.pp r.error

let call_context (name, args) =
  [ ("call", Fmt.str "%a" Journal.pp_call (name, args)) ]

(* Transaction observability: commit/rollback tallies plus spans for
   every phase (begin/calls/check/commit/rollback). *)
let c_commits = Metrics.counter "txn.commits"
let c_rollbacks = Metrics.counter "txn.rollbacks"

let span name f = if Trace.enabled () then Trace.with_span ~cat:"txn" name f else f ()

(* One procedure call, deterministically, with structured failures: the
   outcome state and the call's write set. *)
let exec_call (env : Semantics.env) ((name, args) as c : Journal.call) (db : Db.t) :
  (Db.t * Delta.t, Error.t) result =
  let fail code fmt = Fmt.kstr (fun m -> Result.Error (Error.make ~context:(call_context c) Error.Exec code m)) fmt in
  let run () =
    match Schema.find_proc env.Semantics.schema name with
    | None -> fail (Error.Unknown_procedure name) "unknown procedure %s" name
    | Some proc ->
      (match Semantics.call_delta env proc args db with
       | [ out ] -> Ok out
       | [] -> fail Error.Blocked "procedure %s blocked (no outcome)" name
       | outs ->
         fail (Error.Nondeterministic (List.length outs))
           "procedure %s has %d distinct outcomes" name (List.length outs))
  in
  if Trace.enabled () then
    Trace.with_span ~cat:"txn" ~args:[ ("proc", name) ] "txn.call" run
  else run ()

(* Check every declared constraint (schema's, then the transaction's
   extra ones) in [db]; the verdicts pass through the fault injector's
   [txn.constraint] flip site.

   Schema constraints go through the planner's differential path
   ({!Semantics.query_delta}): the commit's exact delta against the
   snapshot — built from the calls' write sets, never by diffing the
   two states — advances a warm materialization in O(delta) instead of
   re-evaluating the plan over the whole state. The transaction's
   ad-hoc [extra_constraints] use the same path with [shared:false],
   so they never read from or publish into the shared per-schema
   materialization cache (an extra wff structurally equal to a schema
   constraint must not poison — or be served — the schema's slot).

   On success the collected publish thunks are returned; [run] fires
   them only after the journal append succeeded, so a rolled-back
   transaction never publishes a materialization of a discarded
   state. *)
let check_constraints (txn : t) (env : Semantics.env) ~(snapshot : Db.t)
    ~(delta : Delta.t) (db : Db.t) : ((unit -> unit) list, Error.t) result =
  let constraints, extras =
    if txn.check_constraints then
      (env.Semantics.schema.Schema.constraints, txn.extra_constraints)
    else ([], [])
  in
  let rec go publishes = function
    | [] -> Ok (List.rev publishes)
    | (shared, (name, wff)) :: rest ->
      let check () =
        let v, publish =
          Semantics.query_delta env ~before:snapshot ~delta ~shared db wff
        in
        (Fault.flip "txn.constraint" v, publish)
      in
      let verdict, publish =
        if Trace.enabled () then
          Trace.with_span ~cat:"txn"
            ~args:[ ("constraint", name) ]
            "txn.constraint"
            (fun () ->
              let v, publish = check () in
              Trace.add_attr "verdict" (string_of_bool v);
              (v, publish))
        else check ()
      in
      if verdict then go (publish :: publishes) rest
      else
        Result.Error
          (Error.makef
             ~context:[ ("constraint", name) ]
             Error.Commit (Error.Constraint_violation name)
             "constraint %s violated by the commit state" name)
  in
  go []
    (List.map (fun c -> (true, c)) constraints
    @ List.map (fun c -> (false, c)) extras)

(** Run [calls] as one atomic transaction against [db]: all calls
    commit (with every constraint satisfied) or none do. [budget]
    overrides the environment's; the restored state in a rollback is
    always [Db.equal] to [db]. A journaled commit appends its entry
    before the new state is returned. *)
let run ?budget (txn : t) (calls : Journal.call list) (db : Db.t) :
  (Db.t, rollback) result =
  let env =
    match budget with
    | Some b -> Semantics.with_budget b txn.txn_env
    | None -> txn.txn_env
  in
  Fault.set_budget env.Semantics.budget;
  let snapshot = db in
  let rolled_back error = Result.Error { error; restored = snapshot } in
  let work () =
    Fault.hit "txn.begin";
    (* the commit's delta is the calls' write sets composed, its
       scalar flag settled against the snapshot *)
    let rec go db delta = function
      | [] -> Ok (db, Delta.with_scalars ~before:snapshot ~after:db delta)
      | c :: rest -> (
          match exec_call env c db with
          | Ok (db', d) -> go db' (Delta.compose delta d) rest
          | Result.Error _ as e -> e)
    in
    let ( let* ) = Result.bind in
    let* final, delta = go db Delta.empty calls in
    span "txn.commit" (fun () ->
        Fault.hit "txn.commit";
        let* publishes =
          span "txn.check" (fun () -> check_constraints txn env ~snapshot ~delta final)
        in
        (* the monitor hook sees the exact transition the commit makes;
           its publish joins the constraint materializations' *)
        let* publishes =
          match txn.on_commit with
          | None -> Ok publishes
          | Some hook ->
            (* a hook diffing the two states gets [delta] back *)
            Delta.remember ~before:snapshot ~after:final delta;
            span "txn.monitor" (fun () ->
                match hook ~before:snapshot ~after:final with
                | Ok publish -> Ok (publishes @ [ publish ])
                | Result.Error e -> Result.Error e)
        in
        let* () =
          match txn.journal with
          | None -> Ok ()
          | Some path ->
            span "txn.journal" (fun () ->
                Fault.hit "journal.append";
                Journal.append ~fsync:txn.fsync path { Journal.calls })
        in
        (* the commit is durable: publish the checks' materializations
           so the next commit advances from this state *)
        List.iter (fun publish -> publish ()) publishes;
        Ok final)
  in
  let result =
    match span "txn.run" work with
    | result -> result
    | exception Budget.Exhausted r ->
      Result.Error
        (Error.makef Error.Exec (Error.Budget_exhausted r) "budget exhausted (%s)"
           (Budget.resource_name r))
    | exception Fault.Injected site ->
      (* attribute the fault to the phase its site belongs to *)
      let phase =
        if site = "txn.commit" || site = "txn.constraint" || site = "journal.append"
        then Error.Commit
        else Error.Exec
      in
      Result.Error
        (Error.makef phase (Error.Fault_injected site) "fault injected at %s" site)
    | exception Semantics.Exec_error msg ->
      Result.Error (Error.make Error.Exec Error.Exec_failure msg)
    | exception Error.Error e ->
      (* already structured — e.g. [Not_compilable] under the
         [`Compiled] strategy; roll back rather than crash the CLI *)
      Result.Error e
  in
  match result with
  | Ok db ->
    Metrics.incr c_commits;
    Ok db
  | Result.Error e ->
    Metrics.incr c_rollbacks;
    span "txn.rollback" (fun () -> ());
    rolled_back e

(** Re-run [entries] as transactions from [db] without re-journaling:
    the shared recovery loop — [fds replay] drives it over a loaded
    journal, the replication follower over a fetched batch plus the
    journal tail behind its snapshot. [first] numbers the error context
    when the entries are a tail of a longer history. *)
let replay_entries ?budget ?(first = 1) (txn : t)
    (entries : Journal.entry list) (db : Db.t) : (Db.t, Error.t) result =
  let txn = { txn with journal = None } in
  let rec go i db = function
    | [] -> Ok db
    | (entry : Journal.entry) :: rest -> (
        match run ?budget txn entry.Journal.calls db with
        | Ok db' -> go (i + 1) db' rest
        | Result.Error { error; _ } ->
          Result.Error
            {
              error with
              Error.phase = Error.Replay;
              context = ("entry", string_of_int i) :: error.Error.context;
            })
  in
  go first db entries

(** Re-run every committed entry of the journal at [path] as a
    transaction from [db]: the recovery path. Entries are not
    re-journaled; the result is the journaled run's committed state,
    reproduced exactly. Journals truncated behind a snapshot are an
    error here ({!Journal.load}); the snapshot-aware recovery lives in
    [Fdbs_service.Session.replay]. *)
let replay ?budget (txn : t) (path : string) (db : Db.t) : (Db.t, Error.t) result =
  match Journal.load path with
  | Result.Error e -> Result.Error { e with Error.phase = Error.Replay }
  (* a torn tail was already dropped by {!Journal.load}; the CLI is
     responsible for surfacing the warning *)
  | Ok (entries, _torn) -> replay_entries ?budget txn entries db
