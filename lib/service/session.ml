(** Long-lived sessions over a shared database store.

    A {!Store.t} loads and validates a schema {e once} and keeps the
    expensive state warm across requests: the planner's compiled plans
    (warmed eagerly at creation), the accumulated active domain, the
    journal path, and the single mutable database state. A {!t}
    (session) is a lightweight view on a store — the CLI opens one per
    invocation, the [fds serve] daemon one per connection — and every
    entry point returns [(value, Fdbs_kernel.Error.t) result]: no
    exception crosses the session boundary.

    Transactions are session-local buffers: [begin_txn] snapshots the
    store state into a private view, calls execute eagerly against the
    view (early feedback) while being buffered, and [commit] re-executes
    the buffer atomically against the {e current} store state under the
    store lock via {!Fdbs_rpr.Txn.run}. Commits are therefore
    serialized, which makes concurrent sessions serializable: the final
    state always equals the committed batches applied in some serial
    order. *)

open Fdbs_kernel
open Fdbs_rpr

let exec_error code fmt =
  Fmt.kstr (fun m -> Error.make Error.Exec code m) fmt

(* Every exception the execution layers throw, folded into the
   structured error the session boundary returns. The messages mirror
   the CLI's historical top-level handler so [fds] output is unchanged. *)
let error_of_exn : exn -> Error.t option = function
  | Error.Error e -> Some e
  | Budget.Exhausted r ->
    Some (exec_error (Error.Budget_exhausted r) "budget exhausted (%s)"
            (Budget.resource_name r))
  | Fault.Injected site ->
    Some (exec_error (Error.Fault_injected site) "fault injected at %s" site)
  | Semantics.Exec_error m ->
    Some (exec_error Error.Exec_failure "execution error: %s" m)
  | Invalid_argument m | Failure m -> Some (exec_error Error.Exec_failure "%s" m)
  | Sys_error m ->
    Some (Error.make Error.Io Error.Io_failure m)
  | _ -> None

(* [guard f] runs [f] and converts any known exception into [Error]. *)
let guard (f : unit -> ('a, Error.t) result) : ('a, Error.t) result =
  try f () with e -> (match error_of_exn e with
    | Some err -> Result.Error err
    | None -> raise e)

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

module Store = struct
  (* Streaming monitors attached to the store: every commit advances
     them through the {!Txn} commit hook. [`Observe] reports
     violations (events to the sinks, metrics, trace); [`Enforce]
     additionally rolls the violating commit back. *)
  type monitors = {
    mon : Monitor.t;
    mode : [ `Observe | `Enforce ];
    mutable sinks : (Monitor.event list -> unit) list;
        (* called after a violating commit published, outside no lock
           but the store's — the server fans events out to subscribed
           connections from here *)
  }

  type t = {
    schema : Schema.t;
    spec : Fdbs_algebra.Spec.t option;
    config : Config.t;
    lock : Mutex.t;
    step_bucket : Budget.Bucket.t option;
        (* admission control: budget-steps-per-second token bucket,
           from [Config.step_rate]; post-charged with each request's
           actual spend, so a heavy request puts the bucket in debt and
           later requests are rejected until it refills *)
    mutable db : Db.t;
    mutable domain : Domain.t;
    mutable monitors : monitors option;
    mutable sessions : int;  (* sessions ever opened *)
    mutable commits : int;   (* committed batches/transactions *)
  }

  (* Compile every constraint wff and every relational assignment of
     the schema once, so the first request served pays no planning.
     [plan_*] cache negative results too, so unsafe bodies are fine. *)
  let warm_planner (schema : Schema.t) =
    List.iter
      (fun (_, wff) -> ignore (Planner.plan_wff schema wff))
      schema.Schema.constraints;
    let rec warm_stmt = function
      | Stmt.Rel_assign (_, rt) -> ignore (Planner.plan_rterm schema rt)
      | Stmt.Seq (a, b) | Stmt.Union (a, b) | Stmt.If (_, a, b) ->
        warm_stmt a; warm_stmt b
      | Stmt.Star s | Stmt.While (_, s) -> warm_stmt s
      | Stmt.Skip | Stmt.Scalar_assign _ | Stmt.Test _ | Stmt.Insert _
      | Stmt.Delete _ -> ()
    in
    List.iter (fun (p : Schema.proc) -> warm_stmt p.Schema.body) schema.Schema.procs

  let create ?(config = Config.default) ?spec (schema : Schema.t) :
    (t, Error.t) result =
    match Schema.check schema with
    | (_ :: _) as errs ->
      Result.Error
        (Error.make Error.Parse Error.Exec_failure (String.concat "; " errs))
    | [] ->
      (match config.Config.jobs with
       | Some 0 -> Pool.set_default_jobs (Pool.recommended_jobs ())
       | Some n -> Pool.set_default_jobs n
       | None -> ());
      if config.Config.trace <> None then Trace.set_enabled true;
      warm_planner schema;
      Ok
        {
          schema;
          spec;
          config;
          lock = Mutex.create ();
          step_bucket =
            (match config.Config.step_rate with
             | None -> None
             | Some rate -> Some (Budget.Bucket.make ~rate ()));
          db = Schema.empty_db schema;
          domain = Domain.empty;
          monitors = None;
          sessions = 0;
          commits = 0;
        }

  let schema (st : t) = st.schema

  (* All store-state access runs under the store lock: [fds serve]
     workers share one store across domains. *)
  let locked (st : t) f =
    Mutex.lock st.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock st.lock) f

  (* One lock acquisition publishes the read snapshot: the immutable
     state and the accumulated domain, shared by reference. Worker
     domains evaluate against the snapshot {e outside} the store lock,
     and because relation index publication is one-shot
     ({!Fdbs_rpr.Relation}), the first reader builds each index and
     every peer domain reuses it. *)
  let snapshot (st : t) : Db.t * Domain.t =
    locked st (fun () -> (st.db, st.domain))

  (* Seed the monitors with the current committed state and hook them
     into every subsequent commit. Attaching after recovery/replay is
     deliberate: a replayed history does not re-fire events. *)
  let attach_monitors ?(mode = `Observe) (st : t) (m : Monitor.t) : unit =
    locked st (fun () ->
        Monitor.attach m st.db;
        st.monitors <- Some { mon = m; mode; sinks = [] })

  let monitors (st : t) : Monitor.t option =
    locked st (fun () -> Option.map (fun a -> a.mon) st.monitors)

  let monitor_mode (st : t) : [ `Observe | `Enforce ] option =
    locked st (fun () -> Option.map (fun a -> a.mode) st.monitors)

  (* Register an event sink; sinks run on the committing thread, after
     the violating commit published. *)
  let on_monitor_events (st : t) (sink : Monitor.event list -> unit) :
    (unit, Error.t) result =
    locked st (fun () ->
        match st.monitors with
        | None ->
          Result.Error
            (Error.make Error.Exec Error.Exec_failure
               "store has no monitors attached")
        | Some a ->
          a.sinks <- a.sinks @ [ sink ];
          Ok ())
end

(* The {!Txn} commit hook carrying the store's monitors: prospective
   verdicts before the journal append, publish (and event fan-out)
   only once the commit is durable. Enforcing monitors turn the first
   violation into the rollback error. *)
let monitor_hook (st : Store.t) :
  (before:Db.t -> after:Db.t -> ((unit -> unit), Error.t) result) option =
  match st.Store.monitors with
  | None -> None
  | Some a ->
    Some
      (fun ~before ~after ->
        let events, publish =
          Monitor.check a.Store.mon ~domain:st.Store.domain ~before ~after
        in
        match (a.Store.mode, events) with
        | `Enforce, ev :: _ -> Result.Error (Monitor.error_of_event ev)
        | _ ->
          Ok
            (fun () ->
              publish ();
              if events <> [] then
                List.iter (fun sink -> sink events) a.Store.sinks))

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

(* An open transaction: the buffered calls (reversed) and the eager
   shadow view they have produced so far. *)
type txn = { mutable view : Db.t; mutable calls : Journal.call list }

type t = { id : int; store : Store.t; mutable txn : txn option }

let on_store (store : Store.t) : t =
  Store.locked store (fun () ->
      store.Store.sessions <- store.Store.sessions + 1;
      { id = store.Store.sessions; store; txn = None })

let open_ ?config ?spec ~schema () : (t, Error.t) result =
  Result.map on_store (Store.create ?config ?spec schema)

let open_text ?config ?spec (src : string) : (t, Error.t) result =
  match Rparser.schema src with
  | Result.Error e -> Result.Error e
  | Ok schema -> open_ ?config ?spec ~schema ()

let id (s : t) = s.id
let store (s : t) = s.store
let schema (s : t) = s.store.Store.schema
let config (s : t) = s.store.Store.config
let in_txn (s : t) = s.txn <> None

(* The state this session currently observes: its transaction view when
   one is open, the shared store state otherwise. *)
let db (s : t) : Db.t =
  match s.txn with
  | Some tx -> tx.view
  | None -> Store.locked s.store (fun () -> s.store.Store.db)

(* ------------------------------------------------------------------ *)
(* Domains and environments                                            *)
(* ------------------------------------------------------------------ *)

(* The active domain of a call batch, keyed by the procedures' declared
   parameter sorts — the same fold the CLI has always used, now folded
   into the store's accumulated domain so carriers only ever grow. *)
let domain_add_calls (schema : Schema.t) (domain : Domain.t)
    (calls : Journal.call list) : (Domain.t, Error.t) result =
  let rec go d = function
    | [] -> Ok d
    | (name, args) :: rest ->
      (match Schema.find_proc schema name with
       | None ->
         Result.Error
           (Error.make ~context:[ ("stage", "domain") ] Error.Exec
              (Error.Unknown_procedure name)
              (Fmt.str "unknown procedure %s" name))
       | Some p ->
         (match
            List.fold_left2
              (fun d (_, srt) v -> Domain.extend srt v d)
              d p.Schema.pparams args
          with
          | d -> go d rest
          | exception Invalid_argument _ ->
            Result.Error
              (Error.make ~context:[ ("stage", "domain") ] Error.Exec
                 Error.Exec_failure
                 (Fmt.str "procedure %s: arity mismatch" name))))
  in
  go domain calls

(* A fresh environment over the store's schema and accumulated domain.
   The budget is rebuilt per request ([Config.budget] time deadlines
   count from now); the planner cache makes repeated environments
   cheap. [budget] overrides the config-derived one when the caller
   needs to observe the spend (step-rate admission). *)
let env_of ?budget (st : Store.t) : Semantics.env =
  let budget =
    match budget with Some _ -> budget | None -> Config.budget st.Store.config
  in
  Semantics.env ~strategy:st.Store.config.Config.strategy
    ?star_limit:st.Store.config.Config.star_limit
    ?budget
    ~domain:st.Store.domain st.Store.schema

(* --- step-rate admission ---

   [admit_steps] rejects while the store's step bucket is in debt
   (structured [Overloaded] with a retry hint); [request_budget] gives
   every admitted request a budget whose spend is observable (the
   config's own budget, or an unlimited counting one when only the
   bucket needs it); [charge_steps] post-pays the actual spend into the
   bucket. *)

let admit_steps (st : Store.t) : (unit, Error.t) result =
  match st.Store.step_bucket with
  | None -> Ok ()
  | Some b ->
    (match Budget.Bucket.take b 0. with
     | Ok () -> Ok ()
     | Result.Error wait ->
       Result.Error
         (Error.overloaded ~retry_after_s:wait
            "store overloaded: step rate exceeded"))

let request_budget (st : Store.t) : Budget.t option =
  match (Config.budget st.Store.config, st.Store.step_bucket) with
  | (Some _ as b), _ -> b
  | None, Some _ -> Some (Budget.unlimited ())
  | None, None -> None

let charge_steps (st : Store.t) (budget : Budget.t option) : unit =
  match (st.Store.step_bucket, budget) with
  | Some bucket, Some b ->
    Budget.Bucket.charge bucket (float_of_int (Budget.spent b))
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

type outcome = {
  state : Db.t;  (** the (committed) state after the batch *)
  completed : Journal.call list;  (** calls that executed, in order *)
}

type failure = {
  fail_error : Error.t;
  fail_completed : Journal.call list;
      (** non-transactional mode: the successful prefix (its effects
          are kept) *)
  fail_state : Db.t;  (** the state after the failure *)
}

let c_requests = Metrics.counter "service.requests"
let c_commits = Metrics.counter "service.commits"

let fail_with ?(completed = []) st e =
  Result.Error { fail_error = e; fail_completed = completed; fail_state = st }

(* Execute a batch against the shared store state. Transactional mode
   delegates atomicity, constraint checking and journaling to
   {!Txn.run}; otherwise each call commits individually and a failure
   keeps the successful prefix. *)
let run_locked (st : Store.t) (calls : Journal.call list) :
  (outcome, failure) result =
  Metrics.incr c_requests;
  match admit_steps st with
  | Result.Error e -> fail_with st.Store.db e
  | Ok () ->
  let budget = request_budget st in
  Fun.protect ~finally:(fun () -> charge_steps st budget) @@ fun () ->
  match domain_add_calls st.Store.schema st.Store.domain calls with
  | Result.Error e -> fail_with st.Store.db e
  | Ok domain ->
    st.Store.domain <- domain;
    let env = env_of ?budget st in
    if st.Store.config.Config.transactional then (
      let txn =
        Txn.make ~check_constraints:st.Store.config.Config.check_constraints
          ?journal:st.Store.config.Config.journal
          ~fsync:st.Store.config.Config.fsync
          ?on_commit:(monitor_hook st) env
      in
      match Txn.run txn calls st.Store.db with
      | Ok final ->
        st.Store.db <- final;
        st.Store.commits <- st.Store.commits + 1;
        Metrics.incr c_commits;
        Ok { state = final; completed = calls }
      | Result.Error rb ->
        fail_with rb.Txn.restored rb.Txn.error)
    else
      let before = st.Store.db in
      (* non-transactional mode has no rollback, so monitors can only
         observe: the batch's net transition is reported after the
         fact, never enforced *)
      let observe db =
        match st.Store.monitors with
        | Some a when not (db == before) ->
          let events =
            Monitor.advance a.Store.mon ~domain:st.Store.domain ~before
              ~after:db
          in
          if events <> [] then
            List.iter (fun sink -> sink events) a.Store.sinks
        | _ -> ()
      in
      let rec go completed db = function
        | [] ->
          st.Store.db <- db;
          st.Store.commits <- st.Store.commits + 1;
          Metrics.incr c_commits;
          observe db;
          Ok { state = db; completed = List.rev completed }
        | ((name, args) as call) :: rest ->
          (match Semantics.call_det env name args db with
           | Ok db' -> go (call :: completed) db' rest
           | Result.Error e ->
             st.Store.db <- db;
             fail_with ~completed:(List.rev completed) db
               { e with Error.context = ("call", name) :: e.Error.context }
           | exception e ->
             (match error_of_exn e with
              | Some err ->
                st.Store.db <- db;
                fail_with ~completed:(List.rev completed) db err
              | None -> raise e))
      in
      go [] st.Store.db calls

(* Execute a batch inside an open transaction: eagerly against the
   session's private view, buffering the calls for commit. *)
let run_txn (s : t) (tx : txn) (calls : Journal.call list) :
  (outcome, failure) result =
  let st = s.store in
  Metrics.incr c_requests;
  match admit_steps st with
  | Result.Error e -> fail_with tx.view e
  | Ok () ->
  let budget = request_budget st in
  Fun.protect ~finally:(fun () -> charge_steps st budget) @@ fun () ->
  match
    Store.locked st (fun () ->
        match domain_add_calls st.Store.schema st.Store.domain calls with
        | Ok domain ->
          st.Store.domain <- domain;
          Ok (env_of ?budget st)
        | Result.Error e -> Result.Error e)
  with
  | Result.Error e -> fail_with tx.view e
  | Ok env ->
    let rec go completed db = function
      | [] ->
        tx.view <- db;
        tx.calls <- completed @ tx.calls;
        Ok { state = db; completed = List.rev completed }
      | ((name, args) as call) :: rest ->
        (match Semantics.call_det env name args db with
         | Ok db' -> go (call :: completed) db' rest
         | Result.Error e ->
           (* the view keeps the successful prefix; the transaction
              stays open for the client to commit or roll back *)
           tx.view <- db;
           tx.calls <- completed @ tx.calls;
           fail_with ~completed:(List.rev completed) db
             { e with Error.context = ("call", name) :: e.Error.context }
         | exception e ->
           (match error_of_exn e with
            | Some err ->
              tx.view <- db;
              tx.calls <- completed @ tx.calls;
              fail_with ~completed:(List.rev completed) db err
            | None -> raise e))
    in
    go [] tx.view calls

let run (s : t) (calls : Journal.call list) : (outcome, failure) result =
  match s.txn with
  | Some tx -> run_txn s tx calls
  | None -> Store.locked s.store (fun () -> run_locked s.store calls)

let call (s : t) (name : string) (args : Value.t list) :
  (Db.t, Error.t) result =
  match run s [ (name, args) ] with
  | Ok o -> Ok o.state
  | Result.Error f -> Result.Error f.fail_error

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)
(* ------------------------------------------------------------------ *)

let begin_txn (s : t) : (unit, Error.t) result =
  match s.txn with
  | Some _ ->
    Result.Error (exec_error Error.Exec_failure "transaction already open")
  | None ->
    let base = Store.locked s.store (fun () -> s.store.Store.db) in
    s.txn <- Some { view = base; calls = [] };
    Ok ()

let commit (s : t) : (Db.t, Error.t) result =
  match s.txn with
  | None -> Result.Error (exec_error Error.Exec_failure "no open transaction")
  | Some tx ->
    s.txn <- None;
    let st = s.store in
    let calls = List.rev tx.calls in
    (match admit_steps st with
     | Result.Error e -> Result.Error e
     | Ok () ->
    let budget = request_budget st in
    Fun.protect ~finally:(fun () -> charge_steps st budget) @@ fun () ->
    Store.locked st (fun () ->
        guard (fun () ->
            let env = env_of ?budget st in
            let txn =
              Txn.make
                ~check_constraints:st.Store.config.Config.check_constraints
                ?journal:st.Store.config.Config.journal
                ~fsync:st.Store.config.Config.fsync
                ?on_commit:(monitor_hook st) env
            in
            match Txn.run txn calls st.Store.db with
            | Ok final ->
              st.Store.db <- final;
              st.Store.commits <- st.Store.commits + 1;
              Metrics.incr c_commits;
              Ok final
            | Result.Error rb -> Result.Error rb.Txn.error)))

let rollback (s : t) : (Db.t, Error.t) result =
  match s.txn with
  | None -> Result.Error (exec_error Error.Exec_failure "no open transaction")
  | Some _ ->
    s.txn <- None;
    Ok (Store.locked s.store (fun () -> s.store.Store.db))

let close (s : t) : unit = if s.txn <> None then s.txn <- None

(* ------------------------------------------------------------------ *)
(* query / explain                                                     *)
(* ------------------------------------------------------------------ *)

(* Truth of a closed wff in the session's current state. [params]
   declares extra scalar constants, bound to the given values — the
   protocol's way of writing ground queries like OFFERED(c) with
   c = cs101. *)
let query (s : t) ?(params = []) (src : string) : (bool, Error.t) result =
  let st = s.store in
  let decls = List.map (fun (n, srt, _) -> (n, srt)) params in
  let binds = List.map (fun (n, _, v) -> (n, v)) params in
  match Rparser.wff ~params:decls st.Store.schema src with
  | Result.Error e -> Result.Error e
  | Ok wff ->
    (match admit_steps st with
     | Result.Error e -> Result.Error e
     | Ok () ->
       let budget = request_budget st in
       Fun.protect ~finally:(fun () -> charge_steps st budget) @@ fun () ->
       guard (fun () ->
           (* One snapshot read, then evaluation entirely outside the
              store lock: concurrent server workers answer queries in
              parallel against the same shared state. The budget is
              rebuilt per request, so accounting stays exact per caller
              whatever domain serves it. *)
           let state, domain =
             match s.txn with
             | Some tx -> (tx.view, Store.locked st (fun () -> st.Store.domain))
             | None -> Store.snapshot st
           in
           let env =
             Semantics.env ~strategy:st.Store.config.Config.strategy
               ~consts:binds
               ?star_limit:st.Store.config.Config.star_limit
               ?budget
               ~domain st.Store.schema
           in
           Ok (Semantics.query env state wff)))

(* The planner's own account of the schema: every constraint wff and
   every relational assignment, as compiled and as optimized, with the
   live cardinalities of the session's current state. Rendered to a
   string so the CLI prints it verbatim and the server ships it in a
   response field. *)
(* [delta:true] additionally renders, per constraint, the derivative
   plan the differential layer advances on each commit: one
   insert-derivative per relation the plan reads (zero branches
   dropped), or the fallback note when the wff is not compilable and
   every commit re-evaluates naively. *)
let explain ?(delta = false) (s : t) : string =
  let schema = s.store.Store.schema in
  let state = db s in
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  let rel_arity r = List.length (Schema.sorts_of schema r) in
  let rec rels_of acc = function
    | Relalg.Rel r -> if List.mem r acc then acc else r :: acc
    | Relalg.Singleton _ | Relalg.Empty _ -> acc
    | Relalg.Select (_, e) | Relalg.Project (_, e) -> rels_of acc e
    | Relalg.Product (a, b) | Relalg.Union (a, b) -> rels_of (rels_of acc a) b
    | Relalg.Join (es, _) -> List.fold_left rels_of acc es
    | Relalg.Antijoin (a, b, _) -> rels_of (rels_of acc a) b
  in
  (* live cardinalities drive the greedy join order at eval time *)
  let pp_cards ppf e =
    match List.rev (rels_of [] e) with
    | [] -> Fmt.string ppf "none"
    | rels ->
      Fmt.(list ~sep:(any ", ") (fun ppf r ->
               Fmt.pf ppf "|%s| = %d" r
                 (Relation.cardinal (Db.relation_exn state r))))
        ppf rels
  in
  let pp_derivatives optimized =
    match Delta.derivatives optimized with
    | [] -> Fmt.pf ppf "  delta:     plan reads no relation (constant)@."
    | ds ->
      List.iter
        (fun (r, rendered) -> Fmt.pf ppf "  Δ%s:%s %s@." r
             (String.make (max 1 (5 - String.length r)) ' ')
             rendered)
        ds
  in
  let explain_plan = function
    | Result.Error offender ->
      Fmt.pf ppf "  not compilable: %a falls outside the safe fragment@."
        Fdbs_logic.Formula.pp offender;
      Fmt.pf ppf "  (evaluated by naive enumeration of the carriers)@.";
      if delta then
        Fmt.pf ppf "  delta:     not incremental (re-evaluated in full each commit)@."
    | Ok plan ->
      let optimized = Relalg.optimize ~rel_arity plan in
      Fmt.pf ppf "  plan:      %a@." Relalg.pp plan;
      Fmt.pf ppf "  optimized: %a@." Relalg.pp optimized;
      Fmt.pf ppf "  live cardinalities: %a@." pp_cards optimized;
      if delta then pp_derivatives optimized
  in
  Fmt.pf ppf "schema %s: query plans@." schema.Schema.name;
  if delta then
    Fmt.pf ppf
      "delta view: per-relation insert-derivatives of each constraint plan;@.scalar writes (and stale materializations) fall back to full re-evaluation@.";
  List.iter
    (fun (name, wff) ->
      Fmt.pf ppf "@.constraint %s:@." name;
      Fmt.pf ppf "  wff:       %a@." Fdbs_logic.Formula.pp wff;
      explain_plan (Relalg.compile_wff_explain wff))
    schema.Schema.constraints;
  List.iter
    (fun (p : Schema.proc) ->
      let body = Stmt.desugar ~sorts_of:(Schema.sorts_of schema) p.Schema.body in
      let rec go = function
        | Stmt.Rel_assign (r, rt) ->
          Fmt.pf ppf "@.proc %s: %s := %a@." p.Schema.pname r Stmt.pp_rterm rt;
          explain_plan (Relalg.compile_explain rt)
        | Stmt.Seq (a, b) | Stmt.Union (a, b) ->
          go a;
          go b
        | Stmt.Star s -> go s
        | Stmt.If (_, a, b) ->
          go a;
          go b
        | Stmt.While (_, s) -> go s
        | Stmt.Skip | Stmt.Scalar_assign _ | Stmt.Test _ | Stmt.Insert _
        | Stmt.Delete _ -> ()
      in
      go body)
    schema.Schema.procs;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* eval (algebraic specification queries)                              *)
(* ------------------------------------------------------------------ *)

(* Evaluate a ground query term against the session's algebraic
   specification by conditional rewriting; with [trace] the rendered
   text carries the derivation, innermost step first — exactly the
   lines [fds eval] prints. *)
let eval (s : t) ?(trace = false) (src : string) : (string, Error.t) result =
  match s.store.Store.spec with
  | None ->
    Result.Error (exec_error Error.Exec_failure "session has no specification")
  | Some spec ->
    let fail m = Result.Error (exec_error Error.Exec_failure "%s" m) in
    (match Fdbs_algebra.Aparser.term spec.Fdbs_algebra.Spec.signature src with
     | Result.Error e -> fail e
     | Ok t ->
       if trace then
         match Fdbs_algebra.Eval.explain spec t with
         | Ok (v, steps) ->
           Ok
             (Fmt.str "%a%a@."
                Fmt.(list ~sep:nop (fun ppf s ->
                         Fmt.pf ppf "  %a@." Fdbs_algebra.Eval.pp_step s))
                steps Value.pp v)
         | Result.Error e -> fail (Fmt.str "%a" Fdbs_algebra.Eval.pp_error e)
       else
         match Fdbs_algebra.Eval.query spec t with
         | Ok v -> Ok (Fmt.str "%a@." Value.pp v)
         | Result.Error e -> fail (Fmt.str "%a" Fdbs_algebra.Eval.pp_error e))

(* ------------------------------------------------------------------ *)
(* replay                                                              *)
(* ------------------------------------------------------------------ *)

type replayed = {
  rep_entries : int;  (** committed journal entries re-run *)
  rep_calls : int;  (** calls across them *)
  rep_torn : string option;  (** dropped torn-tail description *)
  rep_state : Db.t;  (** the recovered state, installed in the store *)
  rep_snapshot : int option;
      (** the offset of the snapshot that seeded the replay, if one was
          installed *)
  rep_offset : int;  (** absolute offset of the last entry recovered *)
  rep_epoch : int;  (** highest replication epoch seen *)
}

(* Recover the committed state from a write-ahead journal, snapshot
   aware: when a usable snapshot sits next to the journal
   (journal.snap), install it and re-run only the entries behind it —
   bounded recovery; otherwise re-run the full history from the
   schema's empty instance. Either way the result is installed as the
   store state. A journal truncated behind its snapshot requires that
   snapshot to be usable; losing both is unrecoverable and reported as
   a structured error. *)
let replay (s : t) (journal : string) : (replayed, Error.t) result =
  let st = s.store in
  let load_stage e =
    Result.Error { e with Error.context = ("stage", "load") :: e.Error.context }
  in
  Store.locked st (fun () ->
      match Journal.load_log journal with
      | Result.Error e -> load_stage e
      | Ok log ->
        (match
           Replication.load_snapshot ~schema:st.Store.schema
             (Replication.snapshot_path journal)
         with
         | Result.Error e -> load_stage e
         | Ok (snap, snap_warn) ->
           (* ignore snapshots older than the truncation base: they
              cannot cover the missing prefix *)
           let snap =
             match snap with
             | Some sn when sn.Replication.snap_offset >= log.Journal.base ->
               Some sn
             | _ -> None
           in
           if log.Journal.base > 0 && snap = None then
             load_stage
               (Error.makef Error.Replay Error.Io_failure
                  "journal %s: truncated behind offset %d with no usable \
                   snapshot%s"
                  journal log.Journal.base
                  (match snap_warn with
                   | Some w -> Fmt.str " (%s)" w
                   | None -> ""))
           else
             let start, from =
               match snap with
               | Some sn ->
                 (sn.Replication.snap_db, sn.Replication.snap_offset)
               | None -> (Schema.empty_db st.Store.schema, 0)
             in
             let tail =
               List.filter
                 (fun (e : Journal.stamped) -> e.Journal.offset > from)
                 log.Journal.stamped
             in
             let entries =
               List.map (fun (e : Journal.stamped) -> e.Journal.entry) tail
             in
             let all_calls =
               List.concat_map (fun (e : Journal.entry) -> e.Journal.calls)
                 entries
             in
             (match domain_add_calls st.Store.schema st.Store.domain all_calls with
              | Result.Error e -> Result.Error e
              | Ok domain ->
                (* values living only in the snapshot never appear as
                   tail call arguments; fold its active domain in so
                   queries keep their carriers *)
                let domain =
                  match snap with
                  | Some sn ->
                    Domain.union domain
                      (Db.active_domain sn.Replication.snap_db)
                  | None -> domain
                in
                st.Store.domain <- domain;
                guard (fun () ->
                    let env = env_of st in
                    let txn =
                      Txn.make
                        ~check_constraints:
                          st.Store.config.Config.check_constraints env
                    in
                    match Txn.replay_entries ~first:(from + 1) txn entries start with
                    | Ok final ->
                      st.Store.db <- final;
                      let rep_offset =
                        List.fold_left
                          (fun acc (e : Journal.stamped) ->
                            max acc e.Journal.offset)
                          from tail
                      in
                      let rep_epoch =
                        match snap with
                        | Some sn ->
                          max log.Journal.epoch sn.Replication.snap_epoch
                        | None -> log.Journal.epoch
                      in
                      let rep_torn =
                        match (log.Journal.torn, snap_warn) with
                        | None, None -> None
                        | Some t, None -> Some t
                        | None, Some w -> Some w
                        | Some t, Some w -> Some (t ^ "; " ^ w)
                      in
                      Ok
                        {
                          rep_entries = List.length entries;
                          rep_calls = List.length all_calls;
                          rep_torn;
                          rep_state = final;
                          rep_snapshot =
                            Option.map
                              (fun sn -> sn.Replication.snap_offset)
                              snap;
                          rep_offset;
                          rep_epoch;
                        }
                    | Result.Error e -> Result.Error e))))

(* ------------------------------------------------------------------ *)
(* stats                                                               *)
(* ------------------------------------------------------------------ *)

type stats = {
  planner_hits : int;
  planner_misses : int;
  db_size : int;  (** tuples across all relations of the store state *)
  sessions : int;  (** sessions opened on the store *)
  commits : int;  (** committed batches/transactions *)
  metrics : Metrics.snapshot;
}

let stats (s : t) : stats =
  let hits, misses = Planner.stats () in
  Store.locked s.store (fun () ->
      {
        planner_hits = hits;
        planner_misses = misses;
        db_size = Db.size s.store.Store.db;
        sessions = s.store.Store.sessions;
        commits = s.store.Store.commits;
        metrics = Metrics.snapshot ();
      })

(* ------------------------------------------------------------------ *)
(* monitors                                                            *)
(* ------------------------------------------------------------------ *)

type monitor_axiom = {
  ma_name : string;  (** the axiom's name in the temporal theory *)
  ma_kind : Fdbs_temporal.Tformula.kind;
  ma_depth : int;  (** modal nesting depth = the verdict's lag *)
  ma_compiled : bool;  (** safe plan vs. naive evaluation *)
  ma_violations : int;
}

type monitor_status = {
  mon_theory : string;  (** the monitored theory's name *)
  mon_mode : [ `Observe | `Enforce ];
  mon_commits : int;  (** commits the monitors have advanced through *)
  mon_violations : int;  (** events fired, across all axioms *)
  mon_axioms : monitor_axiom list;
  mon_skipped : (string * string) list;  (** axiom, reason *)
}

let monitor (s : t) : (monitor_status, Error.t) result =
  let st = s.store in
  match Store.monitors st with
  | None ->
    Result.Error
      (exec_error Error.Exec_failure "store has no monitors attached")
  | Some m ->
    let mode = Option.value ~default:`Observe (Store.monitor_mode st) in
    Ok
      {
        mon_theory = Monitor.name m;
        mon_mode = mode;
        mon_commits = Monitor.commits m;
        mon_violations = Monitor.violations m;
        mon_axioms =
          List.map
            (fun (c : Monitor.compiled) ->
              {
                ma_name = c.Monitor.m_name;
                ma_kind = c.Monitor.m_kind;
                ma_depth = c.Monitor.m_depth;
                ma_compiled = c.Monitor.m_compiled;
                ma_violations = c.Monitor.m_violations;
              })
            (Monitor.monitors m);
        mon_skipped = Monitor.skipped m;
      }

(* Subscribe the callback to the store's monitor events; it runs on
   the committing thread after each violating commit published. *)
let subscribe (s : t) (sink : Monitor.event list -> unit) :
  (unit, Error.t) result =
  Store.on_monitor_events s.store sink
