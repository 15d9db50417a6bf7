(** The cost-based query planner: compile once, optimize, cache, and
    evaluate against live database states.

    Plans are cached under a structural hash of the relational term or
    wff, keyed per schema via {!Schema.fingerprint}; negative results
    (bodies outside the safe fragment) are cached too, so the naive
    fallback never pays repeated compilation attempts. The cache is a
    process-wide table behind a mutex — cheap relative to planning, and
    safe across {!Fdbs_kernel.Pool} domains, which share the process. *)

open Fdbs_kernel
open Fdbs_logic

(* A cached entry retains the schema and the term that were planned,
   so a key collision resolves by structural comparison — never by
   trusting the hash. Earlier versions compared only the formula: two
   different schemas whose fingerprints collide on a shared body would
   silently exchange plans (optimized for the wrong relation arities,
   hence wrong results, not just wrong costs). *)
type slot =
  | Srterm of Schema.t * Stmt.rterm * Relalg.expr option
  | Swff of Schema.t * Formula.t * Relalg.expr option

let table : (int, slot list) Hashtbl.t = Hashtbl.create 256
let lock = Mutex.create ()
let c_hits = Metrics.counter "planner.cache.hit"
let c_misses = Metrics.counter "planner.cache.miss"
let h_plan_us = Metrics.histogram "planner.plan_us"

(* Bound the table so a long-running process interleaving many schemas
   cannot grow it without limit; resetting just re-plans. *)
let max_entries = 1024

let stats () = (Metrics.value c_hits, Metrics.value c_misses)

(* Materialized constraint plans (the differential layer below) live
   in their own table; clear() resets both. *)
type mat = {
  m_schema : Schema.t;
  m_wff : Formula.t;
  m_state : Db.t;
      (* the committed state [m_node] reflects, compared by reference:
         consecutive commits on a store rebind the same Db.t value, so
         physical equality is exact and O(1) *)
  m_node : Delta.node option;
      (* [None] marks a wff outside the safe fragment: nothing to
         materialize, every commit re-evaluates naively (the
         non-incremental analogue of a cached [Not_compilable]) *)
}

let mat_table : (int, mat list) Hashtbl.t = Hashtbl.create 64
let mat_lock = Mutex.create ()
let c_delta_hits = Metrics.counter "planner.delta_hit"
let c_delta_fallback = Metrics.counter "planner.delta_fallback"
let c_delta_miss = Metrics.counter "planner.delta_miss"

(* Differential maintenance is on by default; `Naive strategy, bench
   comparisons, and tests can turn it off process-wide. *)
let materialization = Atomic.make true
let set_materialization b = Atomic.set materialization b
let materialization_active () = Atomic.get materialization

let delta_stats () =
  ( Metrics.value c_delta_hits,
    Metrics.value c_delta_fallback,
    Metrics.value c_delta_miss )

let clear () =
  Mutex.protect lock (fun () -> Hashtbl.reset table);
  Mutex.protect mat_lock (fun () -> Hashtbl.reset mat_table);
  Metrics.set c_hits 0;
  Metrics.set c_misses 0;
  Metrics.set c_delta_hits 0;
  Metrics.set c_delta_fallback 0;
  Metrics.set c_delta_miss 0

let mix h x = (h * 16777619) lxor x

(* Test hook: masking keys down to a few bits forces collisions, so
   the regression suite can exercise the structural slot comparison
   without birthday-searching a 63-bit hash. All bits in production. *)
let key_mask = ref (-1)
let set_key_mask m = key_mask := (match m with Some m -> m | None -> -1)

let rterm_key (sc : Schema.t) (rt : Stmt.rterm) =
  let h = mix (Schema.fingerprint sc) 59 in
  let h = List.fold_left (fun h v -> mix h (Term.var_hash v)) h rt.Stmt.rt_vars in
  mix h (Formula.hash rt.Stmt.rt_body) land !key_mask

let wff_key (sc : Schema.t) (f : Formula.t) =
  mix (mix (Schema.fingerprint sc) 61) (Formula.hash f) land !key_mask

let rterm_equal (a : Stmt.rterm) (b : Stmt.rterm) =
  List.equal Term.var_equal a.Stmt.rt_vars b.Stmt.rt_vars
  && Formula.equal a.Stmt.rt_body b.Stmt.rt_body

let optimize (sc : Schema.t) e =
  Relalg.optimize ~rel_arity:(fun r -> List.length (Schema.sorts_of sc r)) e

(* Look up and, on a miss, plan — all under the lock. The first caller
   to miss a key plans and stores; a concurrent caller for the same
   key blocks briefly and then hits. Planning is cheap relative to the
   sweeps it serves, and this keeps hit/miss counts deterministic for
   any job count while never compiling the same body twice. *)
let with_cache key find make_slot compile =
  Mutex.protect lock (fun () ->
      let slots = Option.value ~default:[] (Hashtbl.find_opt table key) in
      match List.find_map find slots with
      | Some plan ->
        Metrics.incr c_hits;
        plan
      | None ->
        Metrics.incr c_misses;
        let t0 = Mclock.now_us () in
        let plan = compile () in
        Metrics.observe_us h_plan_us (Mclock.now_us () -. t0);
        let slots =
          if Hashtbl.length table >= max_entries then begin
            Hashtbl.reset table;
            []
          end
          else slots
        in
        Hashtbl.replace table key (make_slot plan :: slots);
        plan)

(** The optimized plan of a relational term under a schema, from the
    cache when warm; [None] when the body is outside the safe
    fragment. *)
let plan_rterm (sc : Schema.t) (rt : Stmt.rterm) : Relalg.expr option =
  with_cache (rterm_key sc rt)
    (function
      | Srterm (sc', rt', plan)
        when Schema.plan_equal sc sc' && rterm_equal rt rt' -> Some plan
      | Srterm _ | Swff _ -> None)
    (fun plan -> Srterm (sc, rt, plan))
    (fun () -> Option.map (optimize sc) (Relalg.compile rt))

(* [plan_wff] under its [wff_key], for a caller that has the key
   already and so need not hash the schema twice. *)
let plan_wff_at key (sc : Schema.t) (f : Formula.t) : Relalg.expr option =
  with_cache key
    (function
      | Swff (sc', f', plan)
        when Schema.plan_equal sc sc' && Formula.equal f f' -> Some plan
      | Srterm _ | Swff _ -> None)
    (fun plan -> Swff (sc, f, plan))
    (fun () -> Option.map (optimize sc) (Relalg.compile_wff f))

(** The optimized 0-ary plan of a closed wff; [None] when open or
    unsafe. *)
let plan_wff (sc : Schema.t) (f : Formula.t) : Relalg.expr option =
  plan_wff_at (wff_key sc f) sc f

let not_compilable_error what offender =
  Error.raise_error Error.Exec
    (Error.Not_compilable (Formula.to_string offender))
    (Fmt.str "%s not compilable: %a falls outside the safe fragment" what
       Formula.pp offender)

let strategy_name = function
  | `Naive -> "naive"
  | `Compiled -> "compiled"
  | `Auto -> "auto"

(** Evaluate a relational term through the plan cache. [`Compiled]
    raises a structured {!Error.Error} outside the safe fragment;
    [`Auto] (default) falls back to the naive evaluator.

    Traced as a [planner.eval] span carrying the strategy and the
    result cardinality. The span is emitted per {e evaluation} (a
    cache-independent event), so span trees stay identical for any
    [--jobs N] even though which domain pays a given cache miss is
    scheduling-dependent; planning work shows up in the
    [planner.cache.*] counters and the [planner.plan_us] histogram
    instead. *)
let eval_rterm ?(strategy = `Auto) ~(schema : Schema.t) ~domain ?consts (db : Db.t)
  (rt : Stmt.rterm) : Relation.t =
  Fault.hit "relalg.eval";
  let eval () =
    let naive () = Relcalc.eval_rterm_naive ~domain ?consts db rt in
    match strategy with
    | `Naive -> naive ()
    | `Compiled ->
      (match plan_rterm schema rt with
       | Some e -> Relalg.eval ~domain ?consts db e
       | None ->
         (match Relalg.compile_explain rt with
          | Ok _ -> assert false
          | Error offender -> not_compilable_error "body" offender))
    | `Auto ->
      (match plan_rterm schema rt with
       | Some e -> Relalg.eval ~domain ?consts db e
       | None -> naive ())
  in
  if Trace.enabled () then
    Trace.with_span ~cat:"planner"
      ~args:[ ("strategy", strategy_name strategy) ]
      "planner.eval"
      (fun () ->
        let r = eval () in
        Trace.add_attr "cardinality" (string_of_int (Relation.cardinal r));
        r)
  else eval ()

(** Truth of a closed wff through the plan cache: an emptiness test on
    the compiled 0-ary plan. [`Auto] (default) falls back to
    {!Relcalc.holds} when the wff is outside the safe fragment;
    [`Compiled] raises the structured error instead. *)
let holds ?(strategy = `Auto) ~(schema : Schema.t) ~domain ?consts (db : Db.t)
  (f : Formula.t) : bool =
  let eval () =
    let naive () = Relcalc.holds ~domain ?consts db f in
    match strategy with
    | `Naive -> naive ()
    | `Compiled ->
      (match plan_wff schema f with
       | Some e -> not (Relation.is_empty (Relalg.eval ~domain ?consts db e))
       | None ->
         (match Relalg.compile_wff_explain f with
          | Ok _ -> assert false
          | Error offender -> not_compilable_error "wff" offender))
    | `Auto ->
      (match plan_wff schema f with
       | Some e -> not (Relation.is_empty (Relalg.eval ~domain ?consts db e))
       | None -> naive ())
  in
  if Trace.enabled () then
    Trace.with_span ~cat:"planner"
      ~args:[ ("strategy", strategy_name strategy) ]
      "planner.holds"
      (fun () ->
        let v = eval () in
        Trace.add_attr "verdict" (string_of_bool v);
        v)
  else eval ()

(* ------------------------------------------------------------------ *)
(* Differentially maintained constraint checks                         *)
(* ------------------------------------------------------------------ *)

let mat_find key schema f =
  Mutex.protect mat_lock (fun () ->
      Hashtbl.find_opt mat_table key
      |> Option.value ~default:[]
      |> List.find_opt (fun m ->
             Schema.plan_equal schema m.m_schema && Formula.equal f m.m_wff))

let mat_publish key (m : mat) =
  Mutex.protect mat_lock (fun () ->
      let slots =
        Hashtbl.find_opt mat_table key
        |> Option.value ~default:[]
        |> List.filter (fun m' ->
               not
                 (Schema.plan_equal m.m_schema m'.m_schema
                 && Formula.equal m.m_wff m'.m_wff))
      in
      let slots =
        if Hashtbl.length mat_table >= max_entries && not (Hashtbl.mem mat_table key)
        then begin
          Hashtbl.reset mat_table;
          []
        end
        else slots
      in
      Hashtbl.replace mat_table key (m :: slots))

(** Truth of a closed wff against [after], maintained differentially.

    The caller supplies the committed state the last verdict was
    published against ([before]) and the exact [delta] taking it to
    [after]. On a warm materialization for (schema, wff) whose state is
    [before] — physical equality, exact because commits rebind shared
    state values — the delta is pushed through the per-operator rules
    ([planner.delta_hit], a [delta.apply] span) instead of
    re-evaluating the plan. Anything else — cold cache
    ([planner.delta_miss]), stale state, a delta rule that does not
    apply, or a wff outside the safe fragment
    ([planner.delta_fallback]) — re-evaluates in full, against the
    plan when one exists and naively otherwise.

    Returns the verdict and a {e publish} thunk. The materialization
    cache is only updated when the caller invokes the thunk — [Txn.run]
    does so after the commit (and its journal append) succeeded, so a
    rolled-back transaction leaves the cache reflecting the committed
    state it last published, never the discarded one.

    The two callers are schema constraints ([Semantics.query_delta]) and
    {!Monitor}, which checks each depth ≤ 1 temporal axiom as a wff
    over its two-state monitor database (own schema, hence own keys)
    and fires these thunks from its own publish thunk.

    [shared:false] (ad-hoc constraints, e.g. [Txn] extras) bypasses the
    shared per-schema materialization cache entirely — same verdict,
    no reads from or writes to the cache. [`Naive] strategy, and
    {!set_materialization}[ false] (constraints and monitors alike),
    likewise evaluate directly. *)
let holds_delta ?(strategy = `Auto) ~(schema : Schema.t) ~domain ?consts
    ~(before : Db.t) ~(delta : Delta.t) ?(shared = true) (after : Db.t)
    (f : Formula.t) : bool * (unit -> unit) =
  let nop () = () in
  let direct () = (holds ~strategy ~schema ~domain ?consts after f, nop) in
  match strategy with
  | `Naive -> direct ()
  | (`Auto | `Compiled) when not (shared && materialization_active ()) ->
    direct ()
  | (`Auto | `Compiled) as strategy -> begin
    let key = wff_key schema f in
    let publish node () =
      mat_publish key { m_schema = schema; m_wff = f; m_state = after; m_node = node }
    in
    match plan_wff_at key schema f with
    | None ->
      (* Outside the safe fragment: nothing to materialize. `Compiled
         keeps its structured error; `Auto re-evaluates naively every
         commit and caches the non-incremental marker. *)
      if strategy = `Compiled then direct ()
      else begin
        Metrics.incr c_delta_fallback;
        let v = Relcalc.holds ~domain ?consts after f in
        (v, publish None)
      end
    | Some plan ->
      let rebuild () =
        let node = Delta.materialize ~domain ?consts after plan in
        let v = not (Relation.is_empty node.Delta.out) in
        (v, publish (Some node))
      in
      match mat_find key schema f with
      | Some { m_state; m_node = Some node; _ } when m_state == before -> begin
        let apply () = Delta.advance ~domain ?consts ~after delta plan node in
        let traced () =
          if Trace.enabled () then
            Trace.with_span ~cat:"planner"
              ~args:[ ("delta", string_of_int (Delta.cardinal delta)) ]
              "delta.apply" apply
          else apply ()
        in
        match traced () with
        | node', _ins, _del ->
          Metrics.incr c_delta_hits;
          let v = not (Relation.is_empty node'.Delta.out) in
          (v, publish (Some node'))
        | exception Delta.Not_incremental ->
          Metrics.incr c_delta_fallback;
          rebuild ()
      end
      | Some _ ->
        (* stale (another store or an uncommitted branch published in
           between) or previously non-compilable: rebuild from [after] *)
        Metrics.incr c_delta_fallback;
        rebuild ()
      | None ->
        Metrics.incr c_delta_miss;
        rebuild ()
  end
