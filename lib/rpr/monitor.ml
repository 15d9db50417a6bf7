(** Streaming temporal monitors (see the interface for the design).

    The compilation pipeline per axiom: rename the theory's
    db-predicates to their homonym relations (the same canonical
    correspondence the refinement levels use), translate the temporal
    wff through {!Fdbs_temporal.Timesort} into a first-order wff over
    the time-widened monitor schema, close the free [now] variable with
    a literal time point, and hand the result to the {!Planner}. A
    two-state monitor database plays the one-step universe of each
    commit; consecutive monitor databases differ by the previous
    commit's delta at time 0 plus the current one at time 1. That
    tagged delta goes to {!Planner.holds_delta}, whose materialization
    table -- the same one constraint checks use -- carries each
    axiom's plan across commits instead of re-evaluating it. *)

open Fdbs_kernel
open Fdbs_logic
open Fdbs_temporal

type event = {
  ev_axiom : string;
  ev_kind : Tformula.kind;
  ev_state : int;
}

type compiled = {
  m_name : string;
  m_kind : Tformula.kind;
  m_depth : int;
  m_wff : Formula.t;
  m_compiled : bool;
  mutable m_violations : int;
}

type t = {
  theory_name : string;
  schema : Schema.t;
  mschema : Schema.t;
  consts : (string * Value.t) list;
  mons : compiled list;
  skipped : (string * string) list;
  max_depth : int;
  mdomain_times : Domain.t;  (** the time carrier, unioned per check *)
  lock : Mutex.t;
  mutable commits : int;
  mutable window : Db.t list;  (** recent states, newest first *)
  mutable mdb : Db.t option;  (** two-state db of the last published commit *)
  mutable prev_delta : Delta.t option;
  mutable total_violations : int;
}

let c_checks = Metrics.counter "monitor.checks"
let c_violations = Metrics.counter "monitor.violations"
let c_resync = Metrics.counter "monitor.resync"
let h_step_us = Metrics.histogram "monitor.step_us"

(* The free current-time variable of the translation. The name cannot
   clash with parsed object-language variables ('%' is not an
   identifier character), so closing it by substitution is exact. *)
let now_var = { Term.vname = "%now"; vsort = Timesort.time_sort }

let rec rename_preds ren (f : Tformula.t) : Tformula.t =
  let r = rename_preds ren in
  match f with
  | Tformula.True | Tformula.False | Tformula.Eq _ -> f
  | Tformula.Pred (p, args) -> (
    match List.assoc_opt (String.lowercase_ascii p) ren with
    | Some p' -> Tformula.Pred (p', args)
    | None -> f)
  | Tformula.Not g -> Tformula.Not (r g)
  | Tformula.And (g, h) -> Tformula.And (r g, r h)
  | Tformula.Or (g, h) -> Tformula.Or (r g, r h)
  | Tformula.Imp (g, h) -> Tformula.Imp (r g, r h)
  | Tformula.Iff (g, h) -> Tformula.Iff (r g, r h)
  | Tformula.Forall (v, g) -> Tformula.Forall (v, r g)
  | Tformula.Exists (v, g) -> Tformula.Exists (v, r g)
  | Tformula.Possibly g -> Tformula.Possibly (r g)
  | Tformula.Necessarily g -> Tformula.Necessarily (r g)

let rec used_preds (f : Tformula.t) : string list =
  match f with
  | Tformula.True | Tformula.False | Tformula.Eq _ -> []
  | Tformula.Pred (p, _) -> [ p ]
  | Tformula.Not g | Tformula.Forall (_, g) | Tformula.Exists (_, g)
  | Tformula.Possibly g | Tformula.Necessarily g ->
    used_preds g
  | Tformula.And (g, h) | Tformula.Or (g, h) | Tformula.Imp (g, h)
  | Tformula.Iff (g, h) ->
    used_preds g @ used_preds h

(* The monitor schema: every relation widened with a trailing [time]
   column, plus the accessibility relation. Its name (hence
   fingerprint) differs from the base schema's, so monitor plans can
   never collide with ordinary constraint plans or materializations in
   the planner's shared tables. *)
let monitor_schema (schema : Schema.t) (tconsts : (string * Sort.t) list) :
    Schema.t =
  {
    Schema.name = schema.Schema.name ^ "+monitor";
    relations =
      List.map
        (fun (r : Schema.rel_decl) ->
          Schema.rel_decl r.Schema.rname
            (r.Schema.rsorts @ [ Timesort.time_sort ]))
        schema.Schema.relations
      @ [
          Schema.rel_decl Timesort.accessible
            [ Timesort.time_sort; Timesort.time_sort ];
        ];
    consts = tconsts;
    constraints = [];
    procs = [];
  }

let fail fmt = Fmt.kstr (fun m -> Result.Error (Error.make Error.Parse Error.Exec_failure m)) fmt

let compile ?(consts = []) ~(schema : Schema.t) (theory : Ttheory.t) :
    (t, Error.t) result =
  let tsig = theory.Ttheory.signature in
  let find_relation name =
    List.find_opt
      (fun (r : Schema.rel_decl) ->
        String.lowercase_ascii r.Schema.rname = String.lowercase_ascii name)
      schema.Schema.relations
  in
  (* Bind db-predicates to relations by the canonical (case-insensitive)
     name correspondence; a missing homonym or a sort disagreement is a
     compile error, not a silent skip. *)
  let rec bind ren = function
    | [] -> Ok (List.rev ren)
    | (p : Signature.pred) :: rest ->
      if not p.Signature.db then bind ren rest
      else (
        match find_relation p.Signature.pname with
        | None ->
          fail "db-predicate %s has no homonym relation in schema %s"
            p.Signature.pname schema.Schema.name
        | Some r ->
          if not (List.equal Sort.equal p.Signature.pargs r.Schema.rsorts) then
            fail "db-predicate %s and relation %s disagree on sorts"
              p.Signature.pname r.Schema.rname
          else
            bind ((String.lowercase_ascii p.Signature.pname, r.Schema.rname) :: ren) rest)
  in
  match bind [] tsig.Signature.preds with
  | Result.Error _ as e -> e
  | Ok ren ->
    let db_names = List.map snd ren in
    let shared_names =
      List.filter_map
        (fun (p : Signature.pred) ->
          if p.Signature.db then None else Some p.Signature.pname)
        tsig.Signature.preds
    in
    let tconsts =
      List.filter_map
        (fun (f : Signature.func) ->
          if f.Signature.fargs = [] then Some (f.Signature.fname, f.Signature.fres)
          else None)
        tsig.Signature.funcs
    in
    let mschema = monitor_schema schema tconsts in
    (* Declared constants default to their symbolic value (the same
       convention as naive evaluation); caller-supplied bindings win. *)
    let eval_consts =
      consts
      @ List.filter_map
          (fun (name, _) ->
            if List.mem_assoc name consts then None
            else Some (name, Value.Sym name))
          tconsts
    in
    let rsig =
      {
        tsig with
        Signature.preds =
          List.map
            (fun (p : Signature.pred) ->
              match List.assoc_opt (String.lowercase_ascii p.Signature.pname) ren with
              | Some rname when p.Signature.db -> { p with Signature.pname = rname }
              | _ -> p)
            tsig.Signature.preds;
      }
    in
    let msig = Timesort.extend_signature rsig in
    let mons, skipped =
      List.fold_left
        (fun (mons, skipped) (ax : Ttheory.axiom) ->
          let name = ax.Ttheory.ax_name in
          let tf = rename_preds ren ax.Ttheory.ax_formula in
          let shared_used =
            List.filter
              (fun p ->
                List.mem p shared_names && not (List.mem p db_names))
              (used_preds tf)
          in
          if shared_used <> [] then
            ( mons,
              (name,
               Fmt.str "mentions shared predicate%s %s (no relation to monitor)"
                 (if List.length shared_used > 1 then "s" else "")
                 (String.concat ", " shared_used))
              :: skipped )
          else
            let depth = Tformula.modal_depth tf in
            let kind = Tformula.classify tf in
            let f = Timesort.translate msig ~now:now_var tf in
            (* Verdict time point: a static axiom speaks about the
               post-commit state (time 1 of the two-state db); a
               transition axiom about the window start (time 0). *)
            let at = if depth = 0 then 1 else 0 in
            let f =
              Formula.subst
                (Term.Subst.of_list [ (now_var, Term.Lit (Value.Int at)) ])
                f
            in
            let m =
              {
                m_name = name;
                m_kind = kind;
                m_depth = depth;
                m_wff = f;
                m_compiled = Planner.plan_wff mschema f <> None;
                m_violations = 0;
              }
            in
            (m :: mons, skipped))
        ([], []) theory.Ttheory.axioms
    in
    let mons = List.rev mons in
    let max_depth =
      List.fold_left (fun acc m -> max acc m.m_depth) 1 mons
    in
    Ok
      {
        theory_name = theory.Ttheory.name;
        schema;
        mschema;
        consts = eval_consts;
        mons;
        skipped = List.rev skipped;
        max_depth;
        mdomain_times =
          Domain.add Timesort.time_sort
            (List.init (max_depth + 1) (fun i -> Value.Int i))
            Domain.empty;
        lock = Mutex.create ();
        commits = 0;
        window = [];
        mdb = None;
        prev_delta = None;
        total_violations = 0;
      }

let of_file ?consts ~schema path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> (
    match Tparser.theory text with
    | Ok theory -> compile ?consts ~schema theory
    | Result.Error msg ->
      Result.Error (Error.makef Error.Parse Error.Exec_failure "%s: %s" path msg))
  | exception Sys_error msg ->
    Result.Error (Error.make Error.Io Error.Io_failure msg)

let name t = t.theory_name
let monitors t = t.mons
let skipped t = t.skipped
let commits t = Mutex.protect t.lock (fun () -> t.commits)
let violations t = Mutex.protect t.lock (fun () -> t.total_violations)

(* ------------------------------------------------------------------ *)
(* Monitor databases                                                   *)
(* ------------------------------------------------------------------ *)

let widen_rel time (r : Relation.t) : Relation.t =
  Relation.of_list
    (Relation.sorts r @ [ Timesort.time_sort ])
    (List.map (fun tu -> tu @ [ Value.Int time ]) (Relation.to_list r))

let time_pair i j =
  [ Value.Int i; Value.Int j ]

let accessible_chain n =
  Relation.of_list
    [ Timesort.time_sort; Timesort.time_sort ]
    (List.init n (fun j -> time_pair j (j + 1)))

(* The flattened database of a window of states (oldest first): every
   relation widened per state, accessibility the one-step chain. *)
let window_db (t : t) (states : Db.t list) : Db.t =
  let db =
    List.fold_left
      (fun db (r : Schema.rel_decl) ->
        let widened =
          List.mapi
            (fun j st ->
              match Db.relation st r.Schema.rname with
              | Some rel -> widen_rel j rel
              | None -> Relation.empty (r.Schema.rsorts @ [ Timesort.time_sort ]))
            states
        in
        Db.with_relation r.Schema.rname
          (List.fold_left Relation.union
             (Relation.empty (r.Schema.rsorts @ [ Timesort.time_sort ]))
             widened)
          db)
      Db.empty t.schema.Schema.relations
  in
  Db.with_relation Timesort.accessible
    (accessible_chain (List.length states - 1))
    db

let widen_delta_map time m =
  Delta.SMap.map (fun r -> widen_rel time r) m

(* The two-state monitor database's delta between consecutive commits:
   the previous commit's delta applies at time 0 (before' = after) and
   the current one at time 1. Tags keep the two disjoint, so the
   insert/delete invariants carry over from the base deltas. *)
let monitor_delta ~(prev : Delta.t) ~(cur : Delta.t) : Delta.t =
  let merge =
    Delta.SMap.union (fun _ a b -> Some (Relation.union a b))
  in
  {
    Delta.inserts =
      merge (widen_delta_map 0 prev.Delta.inserts) (widen_delta_map 1 cur.Delta.inserts);
    deletes =
      merge (widen_delta_map 0 prev.Delta.deletes) (widen_delta_map 1 cur.Delta.deletes);
    scalars_changed = false;
  }

let attach t db =
  Mutex.protect t.lock (fun () ->
      t.commits <- 0;
      t.window <- [ db ];
      t.mdb <- None;
      t.prev_delta <- None)

let error_of_event (ev : event) : Error.t =
  Error.makef
    ~context:[ ("monitor", ev.ev_axiom); ("state", string_of_int ev.ev_state) ]
    Error.Commit
    (Error.Monitor_violation ev.ev_axiom)
    "monitor %s violated at state %d" ev.ev_axiom ev.ev_state

let pp_event ppf (ev : event) =
  let kind =
    match ev.ev_kind with
    | Tformula.Static -> "static"
    | Tformula.Transition -> "transition"
  in
  Fmt.pf ppf "monitor %s (%s) violated at state %d" ev.ev_axiom kind ev.ev_state

let check (t : t) ~domain ~(before : Db.t) ~(after : Db.t) :
    event list * (unit -> unit) =
  Mutex.protect t.lock @@ fun () ->
  let t0 = Mclock.now_us () in
  let mdomain = Domain.union domain t.mdomain_times in
  let in_sync =
    match t.window with cur :: _ -> cur == before | [] -> false
  in
  if (not in_sync) && t.window <> [] then Metrics.incr c_resync;
  let k = if in_sync then t.commits + 1 else 1 in
  let window' = Util.take (t.max_depth + 1) (after :: (if in_sync then t.window else [ before ])) in
  let delta = Delta.of_dbs ~before ~after in
  (* The two-state database of this commit and the planner's view of
     how it got there: advanced from last commit's by the tagged delta
     when we have it; otherwise rebuilt and passed as its own [before]
     with the empty delta -- a fresh value no published
     materialization can match, so the planner rebuilds from it. *)
  let mbefore, mdelta, mdb' =
    match (in_sync, t.mdb, t.prev_delta) with
    | true, Some m, Some prev ->
      let md = monitor_delta ~prev ~cur:delta in
      (m, md, Delta.apply md m)
    | _ ->
      let m = window_db t [ before; after ] in
      (m, Delta.empty, m)
  in
  (* Depth ≥ 2 monitors re-evaluate over their sliding window; the
     verdict about state [k - d] exists once the window is full. *)
  let eval_deep (m : compiled) : bool =
    let wdb = window_db t (List.rev (Util.take (m.m_depth + 1) window')) in
    Planner.holds ~schema:t.mschema ~domain:mdomain ~consts:t.consts wdb m.m_wff
  in
  let events = ref [] in
  let violated = ref [] in
  let publishes = ref [] in
  List.iter
    (fun (m : compiled) ->
      Metrics.incr c_checks;
      let verdict =
        if m.m_depth <= 1 then (
          let v, publish =
            Planner.holds_delta ~schema:t.mschema ~domain:mdomain ~consts:t.consts
              ~before:mbefore ~delta:mdelta mdb' m.m_wff
          in
          publishes := publish :: !publishes;
          Some v)
        else if k >= m.m_depth then Some (eval_deep m)
        else None  (* window not yet full: no verdict about any state *)
      in
      match verdict with
      | Some false ->
        let lag = if m.m_kind = Tformula.Static then 0 else m.m_depth in
        events :=
          { ev_axiom = m.m_name; ev_kind = m.m_kind; ev_state = k - lag }
          :: !events;
        violated := m :: !violated
      | _ -> ())
    t.mons;
  let events = List.rev !events in
  let violated = !violated in
  let publishes = !publishes in
  Metrics.observe_us h_step_us (Mclock.now_us () -. t0);
  let publish () =
    Mutex.protect t.lock (fun () ->
        t.commits <- k;
        t.window <- window';
        t.mdb <- Some mdb';
        t.prev_delta <- Some delta;
        List.iter (fun p -> p ()) publishes;
        t.total_violations <- t.total_violations + List.length events;
        List.iter (fun m -> m.m_violations <- m.m_violations + 1) violated;
        Metrics.add c_violations (List.length events))
  in
  (events, publish)

let advance t ~domain ~before ~after =
  let events, publish = check t ~domain ~before ~after in
  publish ();
  events
