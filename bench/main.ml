(* The benchmark harness: one table per experiment of DESIGN.md's
   experiment index (E1-E27). The paper (PODS 1984) contains no
   quantitative tables or figures — it is a conceptual framework paper —
   so the experiments measure every checker and evaluator the framework
   comprises, on the paper's own example and controlled sweeps, and
   EXPERIMENTS.md records the expected shapes (who wins, how costs
   scale) against these measurements. Every time, in the printed tables
   and in the --json report the CI gate reads, comes from the one
   [time_ns] loop below. *)

open Fdbs_kernel
open Fdbs_logic
open Fdbs_temporal
open Fdbs_algebra
open Fdbs_rpr
open Fdbs_refine
open Fdbs_wgrammar
open Fdbs

let v s = Value.Sym s

(* ------------------------------------------------------------------ *)
(* Harness: one timing loop, one table printer                         *)
(* ------------------------------------------------------------------ *)

(* Monotonic, immune to wall-clock adjustments mid-measurement. *)
let now_ns () = Mclock.now () *. 1e9

(* ns per call of [f]: repeat in doubling batches (after one warm-up
   call) until the batch runs at least [min_time_ns]. Every result goes
   through [Sys.opaque_identity], so no call is optimized away. *)
let time_ns ?(min_time_ns = 5e7) (f : unit -> 'a) : float =
  ignore (Sys.opaque_identity (f ()));
  let rec go reps =
    let t0 = now_ns () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (f ()))
    done;
    let dt = now_ns () -. t0 in
    if dt >= min_time_ns || reps >= 1 lsl 24 then dt /. float_of_int reps
    else go (reps * 2)
  in
  go 1

let pp_time ppf ns =
  if ns < 1e3 then Fmt.pf ppf "%8.1f ns" ns
  else if ns < 1e6 then Fmt.pf ppf "%8.2f us" (ns /. 1e3)
  else if ns < 1e9 then Fmt.pf ppf "%8.2f ms" (ns /. 1e6)
  else Fmt.pf ppf "%8.2f s " (ns /. 1e9)

(* A table cell renders its value on demand: [time f] measures [f] when
   its row is printed, so rows run in table order; the other cells hold
   figures already measured. *)
let ns x () = Fmt.str "%a" pp_time x
let time f () = ns (time_ns f) ()
let ratio x () = Fmt.str "%8.2fx" x
let count unit x () = Fmt.str "%8.0f %s" x unit

let report ~id ~title ~notes rows =
  Fmt.pr "@.%s: %s@." id title;
  Fmt.pr "%s@." (String.make (String.length id + String.length title + 2) '-');
  List.iter (fun (name, cell) -> Fmt.pr "  %-42s %s@." name (cell ())) rows;
  Fmt.pr "  shape: %s@." notes

(* ------------------------------------------------------------------ *)
(* Shared fixtures                                                     *)
(* ------------------------------------------------------------------ *)

let uni = University.functions
let sg2 = uni.Spec.signature

let domain_n_students n =
  Domain.of_list
    [
      ("course", [ v "cs101"; v "cs102" ]);
      ("student", List.init n (fun i -> v (Fmt.str "s%d" i)));
    ]

(* a trace of length l alternating offers and enrollments *)
let trace_of_length l =
  let rec go k acc =
    if k = 0 then acc
    else
      let step =
        match k mod 4 with
        | 0 -> Strace.apply "offer" [ v "cs101" ] acc
        | 1 -> Strace.apply "enroll" [ v "ana"; v "cs101" ] acc
        | 2 -> Strace.apply "offer" [ v "cs102" ] acc
        | _ -> Strace.apply "enroll" [ v "bob"; v "cs102" ] acc
      in
      go (k - 1) step
  in
  go l (Strace.apply "offer" [ v "cs101" ] (Strace.init "initiate"))

(* ------------------------------------------------------------------ *)
(* E1: temporal model checking vs number of states                     *)
(* ------------------------------------------------------------------ *)

let e1 () =
  let sg1 = University.signature1 in
  let dom =
    Domain.of_list
      [ ("course", [ v "cs101"; v "cs102" ]); ("student", [ v "ana"; v "bob" ]) ]
  in
  let consts = [] in
  let mk_state i =
    (* four cyclic patterns of offered/takes *)
    let offered =
      match i mod 4 with
      | 0 -> []
      | 1 -> [ [ v "cs101" ] ]
      | 2 -> [ [ v "cs101" ]; [ v "cs102" ] ]
      | _ -> [ [ v "cs102" ] ]
    in
    let takes =
      match i mod 4 with
      | 2 -> [ [ v "ana"; v "cs101" ] ]
      | 3 -> [ [ v "bob"; v "cs102" ] ]
      | _ -> []
    in
    Structure.of_tables ~domain:dom ~consts
      ~relations:[ ("offered", offered); ("takes", takes) ]
  in
  let axiom1 =
    Tparser.formula_exn sg1 "~(exists s:student, c:course. takes(s, c) & ~offered(c))"
  in
  let point n =
    let states = List.init n mk_state in
    let edges = List.init n (fun i -> (i, (i + 1) mod n)) in
    let u = Universe.make ~states ~edges in
    (Fmt.str "states=%3d" n, time (fun () -> Check.holds_everywhere u axiom1))
  in
  report ~id:"E1" ~title:"Kripke model checking of the static axiom (Sec 3.2)"
    ~notes:"linear in the number of states; each state pays |student|x|course| quantifier work"
    (List.map point [ 10; 50; 200; 500 ])

(* ------------------------------------------------------------------ *)
(* E2: rewriting-based query evaluation vs trace length                *)
(* ------------------------------------------------------------------ *)

let e2 () =
  let point name spec l =
    let trace = trace_of_length l in
    ( Fmt.str "%s trace=%3d" name l,
      time (fun () ->
          Eval.query_on_trace spec ~q:"takes" ~params:[ v "ana"; v "cs101" ] trace) )
  in
  report ~id:"E2" ~title:"conditional rewriting answers a ground query (Sec 4.2)"
    ~notes:"linear in trace length; the larger derived rule set costs a constant factor more per step"
    (List.map (point "hand-eqs" uni) [ 2; 8; 32; 128 ]
    @ List.map (point "derived " University.derived_functions) [ 8; 32 ])

(* ------------------------------------------------------------------ *)
(* E3: sufficient-completeness checking                                *)
(* ------------------------------------------------------------------ *)

let e3 () =
  let point name spec depth =
    (Fmt.str "%s depth=%d" name depth, time (fun () -> Completeness.check ~depth spec))
  in
  report ~id:"E3" ~title:"sufficient completeness: coverage + termination + probing (Sec 4.4a)"
    ~notes:"probing dominates and grows with |updates|^depth"
    [
      point "hand-eqs" uni 1;
      point "hand-eqs" uni 2;
      point "derived " University.derived_functions 1;
      point "derived " University.derived_functions 2;
    ]

(* ------------------------------------------------------------------ *)
(* E4: refinement T1->T2 (static consistency + reachability + modal)   *)
(* ------------------------------------------------------------------ *)

let dom_1x1 =
  Domain.of_list [ ("course", [ v "cs101" ]); ("student", [ v "ana" ]) ]

let dom_2x1 =
  Domain.of_list
    [ ("course", [ v "cs101"; v "cs102" ]); ("student", [ v "ana" ]) ]

let dom_2x2 = University.domain

let e4 () =
  let point name dom =
    (name, time (fun () -> Check12.check ~domain:dom University.info uni University.interp))
  in
  report ~id:"E4"
    ~title:"refinement T1->T2: properties (b),(c),(d) of Sec 4.4 over a bounded domain"
    ~notes:"reachable states grow with the domain (3 / 9 / 25); the valid-state sweep is exponential in |tuples|"
    [ point "domain=1x1 (3 states)" dom_1x1;
      point "domain=2x1 (9 states)" dom_2x1;
      point "domain=2x2 (25 states)" dom_2x2 ]

(* ------------------------------------------------------------------ *)
(* E5: enumerating the valid states (Sec 4.4c)                         *)
(* ------------------------------------------------------------------ *)

let e5 () =
  let dom_3x2 =
    Domain.of_list
      [
        ("course", [ v "cs101"; v "cs102"; v "cs103" ]);
        ("student", [ v "ana"; v "bob" ]);
      ]
  in
  let point name dom =
    (name, time (fun () -> Check12.valid_states University.info ~domain:dom))
  in
  report ~id:"E5" ~title:"valid-state enumeration: all models of the static axioms"
    ~notes:"2^(|offered tuples| + |takes tuples|) candidate structures"
    [ point "domain=1x1 (2^3 candidates)" dom_1x1;
      point "domain=2x2 (2^6 candidates)" dom_2x2;
      point "domain=3x2 (2^9 candidates)" dom_3x2 ]

(* ------------------------------------------------------------------ *)
(* E6: transition-consistency checking on a prebuilt universe          *)
(* ------------------------------------------------------------------ *)

let e6 () =
  let mk dom =
    let g = Reach.explore_exn ~domain:dom uni in
    match Check12.universe_of_graph University.info uni University.interp g with
    | Ok u -> u
    | Error e -> invalid_arg e
  in
  let point name dom =
    let u = mk dom in
    (name, time (fun () -> Ttheory.check_in University.info u))
  in
  report ~id:"E6" ~title:"transition consistency: modal axioms over the reachable universe"
    ~notes:"the nested dia axiom visits successor sets; cost scales with states x edges"
    [ point "1x1 (3 states)" dom_1x1; point "2x2 (25 states)" dom_2x2 ]

(* ------------------------------------------------------------------ *)
(* E7: RPR procedure execution vs database size + update styles        *)
(* ------------------------------------------------------------------ *)

let e7 () =
  let schema = University.representation in
  let mk_db n =
    let dom = domain_n_students n in
    let env = Semantics.env ~domain:dom schema in
    let db = Semantics.call_det_exn env "initiate" [] (Schema.empty_db schema) in
    let db =
      Db.with_relation "TAKES"
        (Relation.of_list [ "student"; "course" ]
           (List.init n (fun i -> [ v (Fmt.str "s%d" i); v "cs101" ])))
        (Db.with_relation "OFFERED"
           (Relation.of_list [ "course" ] [ [ v "cs101" ]; [ v "cs102" ] ])
           db)
    in
    (env, db)
  in
  let sorts_of = Schema.sorts_of schema in
  let insert_stmt = Stmt.Insert ("TAKES", [ Term.Lit (v "s0"); Term.Lit (v "cs102") ]) in
  let set_stmt = Stmt.desugar ~sorts_of insert_stmt in
  let point n =
    let env, db = mk_db n in
    let env_naive = { env with Semantics.strategy = `Naive } in
    [
      ( Fmt.str "enroll tuple-oriented        n=%5d" n,
        time (fun () -> Semantics.exec env insert_stmt db) );
      ( Fmt.str "enroll set-oriented compiled n=%5d" n,
        time (fun () -> Semantics.exec env set_stmt db) );
      ( Fmt.str "enroll set-oriented naive    n=%5d" n,
        time (fun () -> Semantics.exec env_naive set_stmt db) );
      ( Fmt.str "cancel quantified guard      n=%5d" n,
        time (fun () -> Semantics.call_det env "cancel" [ v "cs102" ] db) );
    ]
  in
  report ~id:"E7"
    ~title:"procedure execution: tuple- vs set-oriented styles (Sec 5.2 discussion)"
    ~notes:"tuple-oriented point updates are O(log n); set-oriented reassignment rebuilds the relation; naive enumeration pays |student| x |course|"
    (List.concat_map point [ 10; 100; 1000 ])

(* ------------------------------------------------------------------ *)
(* E8: W-grammar recognition vs schema size                            *)
(* ------------------------------------------------------------------ *)

let e8 () =
  let schema_src k =
    let rels =
      List.init k (fun i -> Fmt.str "relation R%d(thing)" i) |> String.concat "\n"
    in
    let procs =
      List.init k (fun i ->
          Fmt.str "proc add%d(x: thing) = insert R%d(x)" i i)
      |> String.concat "\n"
    in
    Fmt.str "schema s\n%s\nproc init() = R0 := {(x:thing) | false}\n%s\nend" rels procs
  in
  let point k =
    let src = schema_src k in
    ( Fmt.str "relations=procs=%d (%d tokens)" k
        (List.length (Rpr_grammar.tokens_of_source src)),
      time (fun () -> Rpr_grammar.recognizes src) )
  in
  report ~id:"E8" ~title:"W-grammar recognition of schema texts (Sec 5.1.1)"
    ~notes:"superlinear: memoized spans x free-metanotion enumeration (identifiers grow with the schema)"
    (List.map point [ 1; 2; 4; 8 ])

(* ------------------------------------------------------------------ *)
(* E9: refinement T2->T3                                               *)
(* ------------------------------------------------------------------ *)

let e9 () =
  let point name dom =
    let env = Semantics.env ~domain:dom University.representation in
    (name, time (fun () -> Check23.check uni env University.mapping))
  in
  report ~id:"E9" ~title:"refinement T2->T3: every equation valid in the induced model (Sec 5.4)"
    ~notes:"instances = equations x parameter tuples x reachable databases"
    [ point "domain=1x1" dom_1x1; point "domain=2x1" dom_2x1;
      point "domain=2x2" dom_2x2 ]

(* ------------------------------------------------------------------ *)
(* E10: relational calculus evaluation, naive vs compiled              *)
(* ------------------------------------------------------------------ *)

let e10 () =
  let schema = University.representation in
  let rterm =
    let sv = { Term.vname = "s"; vsort = "student" } in
    let cv = { Term.vname = "c"; vsort = "course" } in
    {
      Stmt.rt_vars = [ sv; cv ];
      rt_body =
        Formula.And
          ( Formula.Pred ("TAKES", [ Term.Var sv; Term.Var cv ]),
            Formula.Not (Formula.Pred ("OFFERED", [ Term.Var cv ])) );
    }
  in
  let compiled = Option.get (Relalg.compile rterm) in
  let point n =
    let dom = domain_n_students n in
    let db =
      Schema.empty_db schema
      |> Db.with_relation "OFFERED" (Relation.of_list [ "course" ] [ [ v "cs101" ] ])
      |> Db.with_relation "TAKES"
           (Relation.of_list [ "student"; "course" ]
              (List.init n (fun i ->
                   [ v (Fmt.str "s%d" i); (if i mod 2 = 0 then v "cs101" else v "cs102") ])))
    in
    [
      ( Fmt.str "naive active-domain n=%4d" n,
        time (fun () -> Relcalc.eval_rterm_naive ~domain:dom db rterm) );
      ( Fmt.str "compiled algebra    n=%4d" n,
        time (fun () -> Relalg.eval ~domain:dom db compiled) );
    ]
  in
  report ~id:"E10"
    ~title:"relational term {(s,c) | TAKES & ~OFFERED}: naive vs algebra-compiled"
    ~notes:"naive enumerates |student| x |course| tuples and re-tests; compiled scans TAKES once with an antijoin"
    (List.concat_map point [ 8; 64; 512 ])

(* ------------------------------------------------------------------ *)
(* E11: equation derivation from structured descriptions               *)
(* ------------------------------------------------------------------ *)

let e11 () =
  report ~id:"E11" ~title:"constructive derivation of equations (Sec 4.2 methodology)"
    ~notes:"cost is |descriptions| x |queries|; negligible next to verification"
    [
      ( "university (5 updates, 2 queries)",
        time (fun () -> Derive.equations_exn sg2 University.descriptions) );
    ]

(* ------------------------------------------------------------------ *)
(* E12: cross-level agreement sweep                                    *)
(* ------------------------------------------------------------------ *)

let e12 () =
  let point name dom depth =
    (name, time (fun () -> Design.agreement ~domain:dom ~depth University.design))
  in
  report ~id:"E12" ~title:"cross-level agreement: levels 2 and 3 answer every query alike (Sec 6)"
    ~notes:"traces grow with |updates|^depth; each compared at both levels"
    [
      point "domain=1x1 depth=2" dom_1x1 2;
      point "domain=1x1 depth=3" dom_1x1 3;
      point "domain=2x2 depth=2" dom_2x2 2;
    ]

(* ------------------------------------------------------------------ *)
(* E13: observability ablation (extension)                             *)
(* ------------------------------------------------------------------ *)

let e13 () =
  let g = Reach.explore_exn ~domain:dom_2x2 uni in
  report ~id:"E13" ~title:"observability: quotient size under query ablation (Sec 4.1)"
    ~notes:"dropping a load-bearing query collapses the 25-state quotient; the check is linear in states x observations"
    [
      ("full repertoire (25 states)", time (fun () -> Observability.observable g));
      ("ablation table", time (fun () -> Observability.ablation uni g));
      ( "minimal sufficient sets",
        time (fun () -> Observability.minimal_sufficient_sets uni g) );
    ]

(* ------------------------------------------------------------------ *)
(* E14: critical pairs / confluence (extension)                        *)
(* ------------------------------------------------------------------ *)

let e14 () =
  report ~id:"E14" ~title:"critical pairs of the conditional rewrite system"
    ~notes:"pair discovery is |equations|^2 unifications; joinability pays ground instances x rewriting"
    [
      ("discover pairs (hand equations)", time (fun () -> Confluence.critical_pairs uni));
      ("decide joinability depth=1", time (fun () -> Confluence.check ~depth:1 uni));
      ("decide joinability depth=2", time (fun () -> Confluence.check ~depth:2 uni));
    ]

(* ------------------------------------------------------------------ *)
(* E15: time-sorted translation vs modal checking (Sec 3.1 variant)    *)
(* ------------------------------------------------------------------ *)

let e15 () =
  let sg1 = University.signature1 in
  let g = Reach.explore_exn ~domain:dom_1x1 uni in
  let u =
    match Check12.universe_of_graph University.info uni University.interp g with
    | Ok u -> u
    | Error e -> invalid_arg e
  in
  let axiom2 =
    Tparser.formula_exn sg1
      "~(exists s:student, c:course. dia (takes(s, c) & dia ~(exists c2:course. takes(s, c2))))"
  in
  report ~id:"E15"
    ~title:"modal vs time-sorted checking of the transition axiom (Sec 3.1 alternative)"
    ~notes:"the time-sorted route quantifies over time points explicitly; same verdicts, comparable cost"
    [
      ("Kripke (modal operators)", time (fun () -> Check.holds_everywhere u axiom2));
      ( "time-sorted translation",
        time (fun () ->
            List.init (Universe.num_states u) (fun i -> Timesort.holds_at sg1 u i axiom2))
      );
    ]

(* ------------------------------------------------------------------ *)
(* E16: semantic vs dynamic-logic route to 2->3 refinement             *)
(* ------------------------------------------------------------------ *)

let e16 () =
  let point (name, dom) =
    let env = Semantics.env ~domain:dom University.representation in
    [
      ( Fmt.str "semantic route (Check23)   %s" name,
        time (fun () -> Check23.check uni env University.mapping) );
      ( Fmt.str "dynamic-logic route        %s" name,
        time (fun () -> Dynamic23.check uni env University.mapping) );
    ]
  in
  report ~id:"E16"
    ~title:"2->3 refinement: semantic route vs the deferred dynamic-logic route (Sec 5.3)"
    ~notes:"both check all 15 equations over the reachable databases; the DL route re-runs the procedure inside each modality"
    (List.concat_map point [ ("1x1", dom_1x1); ("2x1", dom_2x1) ])

(* ------------------------------------------------------------------ *)
(* E17: transactional overhead over direct execution                   *)
(* ------------------------------------------------------------------ *)

let e17 () =
  let schema = University.representation in
  let calls =
    [
      ("initiate", []);
      ("offer", [ v "cs101" ]);
      ("offer", [ v "cs102" ]);
      ("enroll", [ v "ana"; v "cs101" ]);
      ("enroll", [ v "bob"; v "cs102" ]);
      ("transfer", [ v "bob"; v "cs102"; v "cs101" ]);
      ("cancel", [ v "cs102" ]);
    ]
  in
  let env = Semantics.env ~domain:dom_2x2 schema in
  let db0 = Fdbs_rpr.Schema.empty_db schema in
  let direct () =
    List.fold_left (fun db (n, args) -> Semantics.call_det_exn env n args db) db0 calls
  in
  let txn = Txn.make env in
  let budgeted = Txn.make env in
  report ~id:"E17"
    ~title:"transactional execution: snapshot/commit/constraint overhead over direct calls"
    ~notes:"Db.t is immutable, so the snapshot is free; the cost is the budget accounting and commit-time constraint sweep"
    [
      ("direct call_det           2x2", time direct);
      ("transactional             2x2", time (fun () -> Txn.run txn calls db0));
      ( "transactional + budget    2x2",
        time (fun () ->
            Txn.run ~budget:(Budget.make ~steps:10_000 ~ms:10_000 ()) budgeted calls db0)
      );
    ]

(* ------------------------------------------------------------------ *)
(* E19: the cost-based query planner — quantified bodies, constraint   *)
(* checking, and the plan cache                                        *)
(* ------------------------------------------------------------------ *)

let planner_schema = University.representation

(* {(s,c) | TAKES(s,c) & forall s2. TAKES(s2,c) -> OFFERED(c)} — a
   universally quantified body the naive evaluator pays
   |student|^2 x |course| substitute-and-test steps for (no witness
   short-circuits a true forall), while the compiled plan antijoins
   TAKES against the tiny projected subplan of the negated
   existential. *)
let planner_quantified_rterm =
  let sv = { Term.vname = "s"; vsort = "student" } in
  let cv = { Term.vname = "c"; vsort = "course" } in
  let s2 = { Term.vname = "s2"; vsort = "student" } in
  {
    Stmt.rt_vars = [ sv; cv ];
    rt_body =
      Formula.And
        ( Formula.Pred ("TAKES", [ Term.Var sv; Term.Var cv ]),
          Formula.Forall
            ( s2,
              Formula.Imp
                ( Formula.Pred ("TAKES", [ Term.Var s2; Term.Var cv ]),
                  Formula.Pred ("OFFERED", [ Term.Var cv ]) ) ) );
  }

(* The guarded schema's integrity constraint: every enrollment is in an
   offered course. Compiles to an emptiness test on an antijoin. *)
let takes_offered_wff =
  let sv = { Term.vname = "s"; vsort = "student" } in
  let cv = { Term.vname = "c"; vsort = "course" } in
  Formula.forall [ sv; cv ]
    (Formula.Imp
       ( Formula.Pred ("TAKES", [ Term.Var sv; Term.Var cv ]),
         Formula.Pred ("OFFERED", [ Term.Var cv ]) ))

let planner_db n =
  Schema.empty_db planner_schema
  |> Db.with_relation "OFFERED"
       (Relation.of_list [ "course" ] [ [ v "cs101" ]; [ v "cs102" ] ])
  |> Db.with_relation "TAKES"
       (Relation.of_list [ "student"; "course" ]
          (List.init n (fun i ->
               [ v (Fmt.str "s%d" i); (if i mod 2 = 0 then v "cs101" else v "cs102") ])))

(* ------------------------------------------------------------------ *)
(* E18: kernel microbenchmarks, machine-readable (--json)               *)
(* ------------------------------------------------------------------ *)

(* The JSON mode exists for the CI perf gate: a handful of kernel
   metrics (indexed-relation membership / compose / closure, and the
   full Check23 sweep at 1/2/4 domains) timed with the tables' [time_ns]
   loop and printed as one JSON object. The gate normalizes every
   metric by [calibration_ns] — the cost of a fixed pure-OCaml loop on
   the same machine — so baselines survive hardware changes. *)

let calibration () =
  let xs = List.init 4096 (fun i -> i) in
  time_ns (fun () -> List.fold_left (fun acc i -> acc + (i * i mod 4093)) 0 xs)

let bench_relation_mem () =
  let tuples = List.init 1024 (fun i -> [ Value.Int i; Value.Int (i * 7) ]) in
  let r = Relation.of_list [ "a"; "b" ] tuples in
  let present = List.init 256 (fun i -> [ Value.Int (i * 4); Value.Int (i * 4 * 7) ]) in
  let absent = List.init 256 (fun i -> [ Value.Int (i + 2048); Value.Int i ]) in
  let probes = present @ absent in
  let per_batch =
    time_ns (fun () ->
        List.fold_left (fun acc tu -> if Relation.mem tu r then acc + 1 else acc) 0 probes)
  in
  per_batch /. float_of_int (List.length probes)

let bench_relation_compose () =
  let a =
    Relation.of_list [ "a"; "m" ]
      (List.init 512 (fun i -> [ Value.Int i; Value.Int (i mod 64) ]))
  in
  let b =
    Relation.of_list [ "m"; "b" ]
      (List.init 512 (fun i -> [ Value.Int (i mod 64); Value.Int i ]))
  in
  time_ns (fun () -> Relation.compose a b)

let bench_relation_closure () =
  let chain =
    Relation.of_list [ "n"; "n" ]
      (List.init 48 (fun i -> [ Value.Int i; Value.Int (i + 1) ]))
  in
  time_ns (fun () -> Relation.transitive_closure chain)

let bench_check23 ~jobs () =
  let env = Semantics.env ~domain:dom_2x2 University.representation in
  time_ns ~min_time_ns:2e8 (fun () ->
      let r =
        Check23.check ~config:(Fdbs_kernel.Config.with_jobs jobs) uni env
          University.mapping
      in
      if not (Check23.ok r) then invalid_arg "bench: Check23 unexpectedly failed")

let bench_planner_quantified ~strategy () =
  let n = 256 in
  let dom = domain_n_students n in
  let db = planner_db n in
  time_ns (fun () ->
      Planner.eval_rterm ~strategy ~schema:planner_schema ~domain:dom db
        planner_quantified_rterm)

let bench_constraint_check ~strategy () =
  let n = 512 in
  let dom = domain_n_students n in
  let db = planner_db n in
  time_ns (fun () ->
      if
        not
          (Planner.holds ~strategy ~schema:planner_schema ~domain:dom db
             takes_offered_wff)
      then invalid_arg "bench: takes_offered unexpectedly violated")

(* Observability costs (E20). The guard metric is the disabled span:
   one atomic load per [with_span] call site, which the gate requires
   to stay within 2% of a semantics statement. *)
let bench_trace_span ~enabled () =
  Trace.set_enabled enabled;
  let per_call =
    time_ns (fun () -> Trace.with_span "bench.span" (fun () -> 1))
  in
  Trace.set_enabled false;
  Trace.reset ();
  per_call

let bench_metrics_incr () =
  let c = Metrics.counter "bench.e20.incr" in
  time_ns (fun () -> Metrics.incr c)

(* One tuple-oriented statement through the instrumented [Semantics.exec]
   hot path, with tracing off (the deployment default) and on. *)
let bench_semantics_statement ~traced () =
  let n = 100 in
  let dom = domain_n_students n in
  let db = planner_db n in
  let env = Semantics.env ~domain:dom planner_schema in
  let stmt = Stmt.Insert ("TAKES", [ Term.Lit (v "s0"); Term.Lit (v "cs102") ]) in
  Trace.set_enabled traced;
  let per_call =
    time_ns (fun () -> Semantics.exec env stmt db)
  in
  Trace.set_enabled false;
  Trace.reset ();
  per_call

(* A cache miss pays hashing + compilation + optimization; a hit pays
   hashing + one bucket scan. *)
let bench_plan_cache_miss () =
  time_ns (fun () ->
      Planner.clear ();
      Planner.plan_rterm planner_schema planner_quantified_rterm)

let bench_plan_cache_hit () =
  ignore (Planner.plan_rterm planner_schema planner_quantified_rterm);
  time_ns (fun () -> Planner.plan_rterm planner_schema planner_quantified_rterm)

(* Service session costs (E21). The daemon's reason to exist: a warm
   session pays only execution per request, while a one-shot client
   pays session setup every time — parsing and checking the schema and
   warming the planner against a cold plan cache, exactly what each
   fresh `fds run` invocation repeats. Both variants run the same
   request batch. *)
module Session = Fdbs_service.Session

let session_schema_src =
  {|
schema service

relation OFFERED(course)
relation TAKES(student, course)

constraint takes_offered: forall s:student. forall c:course. (TAKES(s, c) -> OFFERED(c))

proc initiate() =
  (OFFERED := {(c:course) | false} ; TAKES := {(s:student, c:course) | false})

proc offer(c: course) = insert OFFERED(c)

proc enroll(s: student, c: course) =
  if (OFFERED(c)) then insert TAKES(s, c)

end-schema
|}

let bench_session_open () =
  match Session.open_text session_schema_src with
  | Ok s -> s
  | Error _ -> invalid_arg "bench: session open failed"

let bench_session_request s =
  match
    Session.run s [ ("offer", [ v "cs101" ]); ("enroll", [ v "s0"; v "cs101" ]) ]
  with
  | Ok _ -> ()
  | Error _ -> invalid_arg "bench: session request failed"

let bench_session_warm () =
  let s = bench_session_open () in
  time_ns (fun () -> bench_session_request s)

let bench_session_cold () =
  time_ns (fun () ->
      Planner.clear ();
      bench_session_request (bench_session_open ()))

(* Recovery costs (E22). Crash recovery re-executes the journal; a
   durable snapshot bounds that work to the tail committed after it.
   Build a journal of [recovery_entries] committed transactions with a
   snapshot covering all but [recovery_tail] of them, then measure
   [Session.replay] with the snapshot present (bounded) against the
   same journal with the snapshot hidden (full history). *)
let recovery_entries = 300
let recovery_tail = 10

let with_recovery_journal f =
  let journal = Filename.temp_file "fdbs_bench_recovery" ".journal" in
  Sys.remove journal;
  let snap = Replication.snapshot_path journal in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ journal; snap; snap ^ ".hidden" ])
    (fun () ->
      let config = Config.make ~transactional:true ~journal () in
      let s =
        match Session.open_text ~config session_schema_src with
        | Ok s -> s
        | Error _ -> invalid_arg "bench: recovery session open failed"
      in
      (match Session.run s [ ("initiate", []) ] with
      | Ok _ -> ()
      | Error _ -> invalid_arg "bench: recovery initiate failed");
      for i = 2 to recovery_entries do
        (match Session.run s [ ("offer", [ v (Fmt.str "c%d" i) ]) ] with
        | Ok _ -> ()
        | Error _ -> invalid_arg "bench: recovery offer failed");
        if i = recovery_entries - recovery_tail then
          let snapshot =
            {
              Replication.snap_epoch = 0;
              snap_offset = i;
              snap_db = Session.db s;
            }
          in
          match Replication.save_snapshot snap snapshot with
          | Ok () -> ()
          | Error _ -> invalid_arg "bench: recovery snapshot failed"
      done;
      f journal snap)

(* Both timings from one journal build: (full replay, snapshot-bounded
   replay). The replay counts are asserted so the bench can't silently
   measure the wrong regime. *)
let bench_recovery () =
  with_recovery_journal (fun journal snap ->
      let s =
        match Session.open_text session_schema_src with
        | Ok s -> s
        | Error _ -> invalid_arg "bench: recovery reader open failed"
      in
      let replay expected_entries () =
        match Session.replay s journal with
        | Ok r when r.Session.rep_entries = expected_entries -> ()
        | Ok r ->
            invalid_arg
              (Fmt.str "bench: recovery replayed %d entries, expected %d"
                 r.Session.rep_entries expected_entries)
        | Error _ -> invalid_arg "bench: recovery replay failed"
      in
      let snapshot_ns = time_ns (replay recovery_tail) in
      let hidden = snap ^ ".hidden" in
      Sys.rename snap hidden;
      let full_ns =
        Fun.protect
          ~finally:(fun () -> Sys.rename hidden snap)
          (fun () -> time_ns (replay recovery_entries))
      in
      (full_ns, snapshot_ns))

(* Write-heavy constraint bursts (E24). A store with K integrity
   constraints absorbs N single-tuple commits; from-scratch checking
   re-evaluates every constraint's compiled plan over the whole
   database per commit (K x O(|db|)), while the differential layer
   takes the one-tuple delta from the commit's write set and pushes it
   through each materialized plan (K x O(|delta|)). The workload
   alternates an insert with the matching delete, so the store stays
   bounded while every commit carries a real delta through both the
   insert and delete rules. *)
let burst_k = 12
let burst_n = 2000

(* [key] adds a key constraint on TAKES, a self-join: its delta rule
   probes the TAKES a commit just wrote. *)
let burst_schema_src ~key =
  let rels =
    List.init burst_k (Fmt.str "relation OFFERED%d(course)")
    |> String.concat "\n"
  in
  let cons =
    List.init burst_k (fun i ->
        Fmt.str
          "constraint guard%d: forall s:student. forall c:course. (TAKES(s, c) \
           -> OFFERED%d(c))"
          i i)
    @ (if key then
         [
           "constraint key: forall s:student. forall c:course. forall d:course. \
            ((TAKES(s, c) & TAKES(s, d)) -> c = d)";
         ]
       else [])
    |> String.concat "\n"
  in
  Fmt.str
    "schema burst\nrelation TAKES(student, course)\n%s\n%s\n\
     proc enroll(s: student, c: course) = insert TAKES(s, c)\n\
     proc leave(s: student, c: course) = delete TAKES(s, c)\nend-schema"
    rels cons

let burst_courses = List.init 8 (fun i -> v (Fmt.str "cs%d" i))

let burst_domain n =
  Domain.of_list
    [
      ("course", burst_courses);
      ( "student",
        List.init n (fun i -> v (Fmt.str "s%d" i))
        @ List.init 64 (fun i -> v (Fmt.str "w%d" i)) );
    ]

let burst_offered =
  Relation.of_list [ "course" ] (List.map (fun c -> [ c ]) burst_courses)

(* [n] students, each taking one of the courses *)
let burst_takes n =
  Relation.of_list [ "student"; "course" ]
    (List.init n (fun i -> [ v (Fmt.str "s%d" i); List.nth burst_courses (i mod 8) ]))

(* The burst store's initial state at [n] TAKES tuples, and a closure
   that commits the next of its alternating one-tuple enroll/leave
   transactions and answers the new state. *)
let burst_store ?(key = false) ~n () =
  let schema = Rparser.schema_exn (burst_schema_src ~key) in
  let env = Semantics.env ~domain:(burst_domain n) schema in
  let db =
    List.fold_left
      (fun db i -> Db.with_relation (Fmt.str "OFFERED%d" i) burst_offered db)
      (Db.with_relation "TAKES" (burst_takes n) (Schema.empty_db schema))
      (List.init burst_k Fun.id)
  in
  let txn = Txn.make env in
  let state = ref db in
  let tick = ref 0 in
  let commit () =
    let i = !tick in
    incr tick;
    let j = i / 2 in
    let s = v (Fmt.str "w%d" (j mod 64))
    and c = List.nth burst_courses (j mod 8) in
    let call = if i mod 2 = 0 then ("enroll", [ s; c ]) else ("leave", [ s; c ]) in
    match Txn.run txn [ call ] !state with
    | Ok db' ->
      state := db';
      db'
    | Error rb ->
      invalid_arg (Fmt.str "bench: burst commit rolled back: %a" Txn.pp_rollback rb)
  in
  (db, commit)

let bench_constraint_burst ?key ?(n = burst_n) ~incremental () =
  let _, commit = burst_store ?key ~n () in
  Planner.set_materialization incremental;
  Planner.clear ();
  (* time_ns's warm-up call pays the one cold materialization miss *)
  let per_commit = time_ns ~min_time_ns:2e8 commit in
  Planner.set_materialization true;
  Planner.clear ();
  per_commit

(* Allocation sweeps (E27): words a call allocates on the minor heap,
   counted by the runtime, so the figures are exact and machine-free.
   Compared at two store sizes, they gate how a cost scales with |db|
   without timing anything. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

let alloc_sizes = [ 2000; 8000 ]

(* The median of 16 readings of [words ()], taken after 16 calls of
   [warm ()]. *)
let median_of_16 ~warm words =
  for _ = 1 to 16 do
    warm ()
  done;
  let ws = List.init 16 (fun _ -> words ()) |> List.sort Float.compare in
  (List.nth ws 7 +. List.nth ws 8) /. 2.

(* Words one warm differential [Txn.run] of the E24 burst allocates
   (with [key], of the burst plus the key constraint): the median over
   16 commits (8 enrolls, 8 leaves) after 16 warm-up commits, which pay
   the cold materializations. *)
let bench_commit_alloc ?key ~n () =
  let _, commit = burst_store ?key ~n () in
  Planner.clear ();
  let words =
    median_of_16 ~warm:(fun () -> ignore (commit () : Db.t)) (fun () -> minor_words commit)
  in
  Planner.clear ();
  words

(* Words rendering the `run` reply of one such commit allocates in the
   warm per-domain render buffer, the state included: the median over
   16 commits after 16 warm-up commits, the first of which renders
   cold. *)
let bench_reply_alloc ~n =
  let _, commit = burst_store ~n () in
  Planner.clear ();
  let render db =
    Json.with_rendered
      (Json.Obj
         [
           ("id", Json.Num 1.);
           ("ok", Json.Bool true);
           ( "result",
             Json.Obj
               [ ("completed", Json.Num 1.); ("state", Fdbs_service.Protocol.db_to_json db) ]
           );
         ])
      Buffer.length
  in
  let words =
    median_of_16
      ~warm:(fun () -> ignore (render (commit ()) : int))
      (fun () ->
        let db = commit () in
        minor_words (fun () -> render db))
  in
  Planner.clear ();
  words

(* Words [Db.active_domain] allocates over the same store: the recovery
   path's domain computation. *)
let bench_active_domain_alloc ~n =
  let db, _ = burst_store ~n () in
  minor_words (fun () -> Db.active_domain db)

(* A session over the burst store at [n] TAKES tuples, recovered from a
   snapshot as a server recovers its store. *)
let burst_session ~n =
  let db, _ = burst_store ~n () in
  let journal = Filename.temp_file "fdbs_bench_read" ".journal" in
  let snap = Replication.snapshot_path journal in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ journal; snap ])
    (fun () ->
      let snapshot = { Replication.snap_epoch = 0; snap_offset = 0; snap_db = db } in
      (match Replication.save_snapshot snap snapshot with
      | Ok () -> ()
      | Error _ -> invalid_arg "bench: read snapshot failed");
      let s =
        match Session.open_text (burst_schema_src ~key:false) with
        | Ok s -> s
        | Error _ -> invalid_arg "bench: read session open failed"
      in
      match Session.replay s journal with
      | Ok _ -> s
      | Error _ -> invalid_arg "bench: read session recovery failed")

(* The two reads of the read_pipeline workload through [Session.query]
   on [s] at [n] tuples, both true: the point query [TAKES(ps, pc)] of
   a present tuple, and the existence query of a taker of [pc]. *)
let read_queries s ~n =
  let i = n / 2 in
  let ps = v (Fmt.str "s%d" i) and pc = List.nth burst_courses (i mod 8) in
  let ask params wff () =
    match Session.query s ~params wff with
    | Ok true -> ()
    | Ok false | Error _ -> invalid_arg ("bench: read query failed: " ^ wff)
  in
  ( ask [ ("ps", "student", ps); ("pc", "course", pc) ] "TAKES(ps, pc)",
    ask [ ("pc", "course", pc) ] "exists s:student. TAKES(s, pc)" )

(* Words one warm point query plus one warm existence query allocate
   (E27): a ground atom is one membership probe and a nullary
   projection an emptiness test, so neither may grow with the store.
   The median over 16 query pairs after 16 warm-up pairs. *)
let bench_read_alloc ~n =
  let point, exists = read_queries (burst_session ~n) ~n in
  let pair () =
    point ();
    exists ()
  in
  median_of_16 ~warm:pair (fun () -> minor_words pair)

(* E19, after the read helpers its read rows time *)
let e19 () =
  let point n =
    let dom = domain_n_students n in
    let db = planner_db n in
    let eval strategy () =
      Planner.eval_rterm ~strategy ~schema:planner_schema ~domain:dom db
        planner_quantified_rterm
    in
    let check strategy () =
      Planner.holds ~strategy ~schema:planner_schema ~domain:dom db
        takes_offered_wff
    in
    [
      (Fmt.str "quantified rterm naive    n=%4d" n, time (eval `Naive));
      (Fmt.str "quantified rterm compiled n=%4d" n, time (eval `Compiled));
      (Fmt.str "constraint check naive    n=%4d" n, time (check `Naive));
      (Fmt.str "constraint check compiled n=%4d" n, time (check `Compiled));
    ]
  in
  (* the read_pipeline workload's two reads, and a plan-cache hit on
     the burst schema's 13 relations *)
  let reads n =
    let point, exists = read_queries (burst_session ~n) ~n in
    [
      (Fmt.str "point query (Session.query)  n=%4d" n, time point);
      (Fmt.str "exists query (Session.query) n=%4d" n, time exists);
    ]
  in
  let plan_hit =
    let schema = Rparser.schema_exn (burst_schema_src ~key:false) in
    let f =
      Rparser.wff_exn ~params:[ ("pc", "course") ] schema "exists s:student. TAKES(s, pc)"
    in
    ("plan_wff cache hit, 13-relation schema", time (fun () -> Planner.plan_wff schema f))
  in
  report ~id:"E19"
    ~title:"cost-based planner: quantified bodies and constraint checks vs naive"
    ~notes:"naive pays carrier-product enumeration with an inner quantifier sweep per tuple; the plan cache amortizes compilation so compiled scans the live relations; a point query is one membership probe and an exists query an index lookup tested for emptiness, so neither grows with n"
    (List.concat_map point [ 16; 64; 256 ] @ List.concat_map reads alloc_sizes @ [ plan_hit ])

(* Gateway throughput (E25). Boot the real [Server.serve] on a Unix
   socket in a spawned domain and drive it with [gw_clients] pipelined
   connections, each keeping a window of [gw_window] frames in flight
   (~7:1 ping:query mix), exactly as the pooled `fds client` does. The
   result is aggregate answered requests per second — the end-to-end
   number gate.ml's bound table floors: protocol framing, the
   pipelined read-ahead loop, admission accounting, and the corked
   flush all sit on this path. *)
module Server = Fdbs_service.Server
module Client = Fdbs_service.Client

let gw_clients = 8
let gw_requests = 500
let gw_window = 32

let gateway_request i =
  if i mod 8 = 7 then
    Fmt.str {|{"id": %d, "op": "query", "wff": "exists c:course. OFFERED(c)"}|}
      i
  else Fmt.str {|{"id": %d, "op": "ping"}|} i

let gateway_drive c =
  let sent = ref 0 and got = ref 0 in
  while !got < gw_requests do
    while !sent < gw_requests && !sent - !got < gw_window do
      Client.send c (gateway_request !sent);
      incr sent
    done;
    Client.flush c;
    (* drain to half a window so the next burst overlaps the server's
       replies instead of strictly alternating *)
    let target =
      if !sent = gw_requests then gw_requests
      else Stdlib.min gw_requests (!got + (gw_window / 2))
    in
    while !got < target do
      match Client.recv c with
      | None -> invalid_arg "bench: gateway server closed the connection"
      | Some _ -> incr got
    done
  done;
  (* closing here, not after the join, releases this connection's
     worker to the next queued connection *)
  Client.close c

let bench_gateway_rps () =
  let sock = Filename.temp_file "fdbs_bench_gw" ".sock" in
  Sys.remove sock;
  let schema =
    match Rparser.schema session_schema_src with
    | Ok s -> s
    | Error _ -> invalid_arg "bench: gateway schema parse failed"
  in
  let ready_m = Mutex.create () and ready_c = Condition.create () in
  let ready = ref false in
  let server =
    Stdlib.Domain.spawn (fun () ->
        Server.serve ~workers:gw_clients
          ~ready:(fun () ->
            Mutex.lock ready_m;
            ready := true;
            Condition.broadcast ready_c;
            Mutex.unlock ready_m)
          (`Unix sock) schema)
  in
  Mutex.lock ready_m;
  while not !ready do
    Condition.wait ready_c ready_m
  done;
  Mutex.unlock ready_m;
  let connect () =
    match Client.connect (Unix.ADDR_UNIX sock) with
    | Ok c -> c
    | Error e -> invalid_arg ("bench: gateway " ^ e.Error.message)
  in
  let conns = Array.init gw_clients (fun _ -> connect ()) in
  let t0 = Unix.gettimeofday () in
  let drivers =
    Array.map (fun c -> Stdlib.Domain.spawn (fun () -> gateway_drive c)) conns
  in
  Array.iter Stdlib.Domain.join drivers;
  let elapsed = Unix.gettimeofday () -. t0 in
  let c = connect () in
  ignore (Client.rpc c {|{"id": 0, "op": "shutdown"}|});
  Client.close c;
  (match Stdlib.Domain.join server with
  | Ok _ -> ()
  | Error _ -> invalid_arg "bench: gateway server failed");
  if Sys.file_exists sock then Sys.remove sock;
  float_of_int (gw_clients * gw_requests) /. elapsed

(* Streaming monitor overhead (E26). The same transactional commit
   loop as the burst bench, through the full [Session.run] path, with
   and without temporal monitors attached to the store. The theory
   holds on the workload (OFFERED never shrinks, every TAKES tuple is
   in an offered course), so the measured cost is pure monitoring —
   one static and one depth-1 transition axiom advanced by the delta
   layer per commit — not the violation path. *)
let monitor_schema_src =
  {|
schema guarded

relation OFFERED(course)
relation TAKES(student, course)

constraint takes_offered: forall s:student. forall c:course. (TAKES(s, c) -> OFFERED(c))

proc initiate() =
  (OFFERED := {(c:course) | false} ; TAKES := {(s:student, c:course) | false})

proc offer(c: course) = insert OFFERED(c)

proc retract(c: course) =
  if (~(exists s:student. TAKES(s, c))) then delete OFFERED(c)

proc enroll(s: student, c: course) =
  if (OFFERED(c)) then insert TAKES(s, c)

proc leave(s: student, c: course) = delete TAKES(s, c)

end-schema
|}

let monitor_theory_src =
  {|
theory guarded

sort course
sort student

pred offered : course
pred takes : student, course

axiom takes_offered: forall s:student, c:course. (takes(s, c) -> offered(c))

axiom no_retract: forall c:course. (offered(c) -> box offered(c))
|}

let bench_monitor_commit ~monitored () =
  let config = Config.make ~transactional:true () in
  let s =
    match Session.open_text ~config monitor_schema_src with
    | Ok s -> s
    | Error _ -> invalid_arg "bench: monitor session open failed"
  in
  let run calls =
    match Session.run s calls with
    | Ok _ -> ()
    | Error _ -> invalid_arg "bench: monitor commit failed"
  in
  run [ ("initiate", []); ("offer", [ v "cs101" ]); ("offer", [ v "cs102" ]) ];
  let mon =
    if not monitored then None
    else
      let schema = Rparser.schema_exn monitor_schema_src in
      match Monitor.compile ~schema (Tparser.theory_exn monitor_theory_src) with
      | Error _ -> invalid_arg "bench: monitor compile failed"
      | Ok m ->
        if Monitor.skipped m <> [] then
          invalid_arg "bench: monitor skipped an axiom";
        Session.Store.attach_monitors (Session.store s) m;
        Some m
  in
  let tick = ref 0 in
  let commit () =
    let i = !tick in
    incr tick;
    let j = i / 2 in
    let st = v (Fmt.str "w%d" (j mod 64)) in
    let call =
      if i mod 2 = 0 then ("enroll", [ st; v "cs101" ])
      else ("leave", [ st; v "cs101" ])
    in
    run [ call ]
  in
  let per_commit = time_ns ~min_time_ns:2e8 commit in
  (match mon with
  | Some m when Monitor.violations m > 0 ->
    invalid_arg "bench: monitor workload unexpectedly violated"
  | _ -> ());
  per_commit

(* Words one monitored commit allocates (E27): the guarded schema at
   [n] TAKES tuples, its theory's monitors advanced by every commit
   through the [Txn] commit hook, and commits that alternately offer
   and retract a course no student takes. Each retract violates
   [no_retract], and each changes OFFERED under both axioms' antijoins,
   whose readmit and retract rules then look TAKES up by course. The
   median over 16 commits after 16 warm-up commits. *)
let bench_monitor_alloc ~n =
  let schema = Rparser.schema_exn monitor_schema_src in
  let spare = v "spare" in
  let domain =
    Domain.union (burst_domain n) (Domain.of_list [ ("course", [ spare ]) ])
  in
  let mon =
    match Monitor.compile ~schema (Tparser.theory_exn monitor_theory_src) with
    | Ok m -> m
    | Error _ -> invalid_arg "bench: monitor compile failed"
  in
  let db =
    Db.with_relation "OFFERED" burst_offered
      (Db.with_relation "TAKES" (burst_takes n) (Schema.empty_db schema))
  in
  Monitor.attach mon db;
  let on_commit ~before ~after = Ok (snd (Monitor.check mon ~domain ~before ~after)) in
  let txn = Txn.make ~on_commit (Semantics.env ~domain schema) in
  let state = ref db and tick = ref 0 in
  let commit () =
    incr tick;
    let call = ((if !tick mod 2 = 1 then "offer" else "retract"), [ spare ]) in
    match Txn.run txn [ call ] !state with
    | Ok db' -> state := db'
    | Error _ -> invalid_arg "bench: monitored commit rolled back"
  in
  Planner.clear ();
  let words = median_of_16 ~warm:commit (fun () -> minor_words commit) in
  Planner.clear ();
  words

(* A report key as a JSON string, through the writer the gate and the
   protocol share. *)
let json_key k =
  let buf = Buffer.create 32 in
  Json.add_string buf k;
  Buffer.contents buf

let run_json () =
  let calibration_ns = calibration () in
  let metrics =
    [
      ("relation_mem", bench_relation_mem ());
      ("relation_compose", bench_relation_compose ());
      ("relation_closure", bench_relation_closure ());
      ("check23_jobs1", bench_check23 ~jobs:1 ());
      ("check23_jobs2", bench_check23 ~jobs:2 ());
      ("check23_jobs4", bench_check23 ~jobs:4 ());
      ("planner_quantified_naive", bench_planner_quantified ~strategy:`Naive ());
      ("planner_quantified_compiled", bench_planner_quantified ~strategy:`Compiled ());
      ("constraint_check_naive", bench_constraint_check ~strategy:`Naive ());
      ("constraint_check_compiled", bench_constraint_check ~strategy:`Compiled ());
      ("plan_cache_miss", bench_plan_cache_miss ());
      ("plan_cache_hit", bench_plan_cache_hit ());
      ("trace_span_disabled", bench_trace_span ~enabled:false ());
      ("trace_span_enabled", bench_trace_span ~enabled:true ());
      ("metrics_counter_incr", bench_metrics_incr ());
      ("semantics_statement", bench_semantics_statement ~traced:false ());
      ("semantics_statement_traced", bench_semantics_statement ~traced:true ());
      ("session_cold_request", bench_session_cold ());
      ("session_warm_request", bench_session_warm ());
    ]
  in
  let metrics =
    let recovery_full, recovery_snapshot = bench_recovery () in
    metrics
    @ [
        ("recovery_full", recovery_full);
        ("recovery_snapshot", recovery_snapshot);
        ( "constraint_burst_incremental",
          bench_constraint_burst ~incremental:true () );
        ("constraint_burst_scratch", bench_constraint_burst ~incremental:false ());
        ("monitor_commit_plain", bench_monitor_commit ~monitored:false ());
        ("monitor_commit_monitored", bench_monitor_commit ~monitored:true ());
      ]
  in
  let get name = List.assoc name metrics in
  let derived =
    [
      (* gated by gate.ml on runners with >= 4 cores (>= 1.5 at 4
         domains; jobs2 must not regress) *)
      ("check23_speedup_jobs2", get "check23_jobs1" /. get "check23_jobs2");
      ("check23_speedup_jobs4", get "check23_jobs1" /. get "check23_jobs4");
      ( "planner_quantified_speedup",
        get "planner_quantified_naive" /. get "planner_quantified_compiled" );
      ( "constraint_check_speedup",
        get "constraint_check_naive" /. get "constraint_check_compiled" );
      ("plan_cache_speedup", get "plan_cache_miss" /. get "plan_cache_hit");
      (* gated at 2% by gate.ml: the cost of a disabled span relative to
         one semantics statement — the zero-cost-when-off contract *)
      ( "trace_disabled_overhead",
        get "trace_span_disabled" /. get "semantics_statement" );
      ( "trace_enabled_cost_ratio",
        get "semantics_statement_traced" /. get "semantics_statement" );
      (* gated by gate.ml (>= 5): a warm session must beat per-request
         setup by the margin that justifies the daemon *)
      ( "session_warm_speedup",
        get "session_cold_request" /. get "session_warm_request" );
      (* recovery bounded by a snapshot vs a full history re-run —
         the number EXPERIMENTS.md's E22 reports *)
      ("recovery_snapshot_speedup", get "recovery_full" /. get "recovery_snapshot");
      (* gated by gate.ml (>= 5): a warm differential commit must beat
         from-scratch constraint re-evaluation by the margin that
         justifies the machinery — the number EXPERIMENTS.md's E24
         reports *)
      ( "constraint_delta_speedup",
        get "constraint_burst_scratch" /. get "constraint_burst_incremental" );
      (* gated by gate.ml (<= 3): a commit with streaming monitors
         attached relative to the same commit without them — the
         number EXPERIMENTS.md's E26 reports *)
      ( "monitor_commit_overhead",
        get "monitor_commit_monitored" /. get "monitor_commit_plain" );
      (* not a ratio: aggregate answered requests/second through the
         socket gateway (E25), gated by gate.ml (>= 200 — an absolute
         floor, deliberately far below any real machine, that catches a
         hung or serialized gateway) *)
      ("gateway_rps", bench_gateway_rps ());
    ]
  in
  let alloc =
    List.concat_map
      (fun n ->
        [
          (Fmt.str "commit_alloc_n%dk" (n / 1000), bench_commit_alloc ~n ());
          (Fmt.str "active_domain_alloc_n%dk" (n / 1000), bench_active_domain_alloc ~n);
          (Fmt.str "reply_alloc_n%dk" (n / 1000), bench_reply_alloc ~n);
          (Fmt.str "selfjoin_alloc_n%dk" (n / 1000), bench_commit_alloc ~key:true ~n ());
          (Fmt.str "monitor_alloc_n%dk" (n / 1000), bench_monitor_alloc ~n);
          (Fmt.str "read_alloc_n%dk" (n / 1000), bench_read_alloc ~n);
        ])
      alloc_sizes
  in
  let alloc_ratio name =
    List.assoc (name ^ "_n8k") alloc /. List.assoc (name ^ "_n2k") alloc
  in
  let derived =
    derived
    @ [
        (* gated by gate.ml (<= 1.5): the words one differential
           commit allocates at n = 8k over n = 2k — a commit must cost
           O(|delta|), not O(|db|) *)
        ("commit_alloc_ratio", alloc_ratio "commit_alloc");
        (* gated by gate.ml (<= 6): recovery's domain computation must
           stay O(n log n) *)
        ("active_domain_alloc_ratio", alloc_ratio "active_domain_alloc");
        (* gated by gate.ml (<= 1.5): rendering a commit reply re-renders
           only the chunks the commit touched, whatever the store size *)
        ("reply_alloc_ratio", alloc_ratio "reply_alloc");
        (* gated by gate.ml (<= 1.5): a commit checked by a key
           constraint, whose self-join probes the relation the commit
           wrote, and a monitored commit whose antijoins readmit and
           retract by key, must both cost O(|delta|) too *)
        ("selfjoin_alloc_ratio", alloc_ratio "selfjoin_alloc");
        ("monitor_alloc_ratio", alloc_ratio "monitor_alloc");
        (* gated by gate.ml (<= 1.5): a warm point query and a warm
           existence query must cost O(log n), not a scan *)
        ("read_alloc_ratio", alloc_ratio "read_alloc");
      ]
  in
  let pp_fields ppf fields =
    Fmt.pf ppf "%a"
      Fmt.(
        list ~sep:(any ",@,") (fun ppf (k, value) ->
            (* 4 decimals: the derived overhead ratios live well below
               the 2% gate and must survive the round-trip *)
            Fmt.pf ppf "@[%s: %.4f@]" (json_key k) value))
      fields
  in
  Fmt.pr
    "@[<v 2>{@,\
     \"schema_version\": 1,@,\
     \"cores\": %d,@,\
     \"calibration_ns\": %.2f,@,\
     @[<v 2>\"metrics\": {@,%a@]@,},@,\
     @[<v 2>\"alloc_words\": {@,%a@]@,},@,\
     @[<v 2>\"derived\": {@,%a@]@,}@]@,}@."
    (Pool.recommended_jobs ())
    calibration_ns pp_fields metrics pp_fields alloc pp_fields derived

(* ------------------------------------------------------------------ *)
(* E20: observability — span/counter costs and counter deltas          *)
(* ------------------------------------------------------------------ *)

(* The off/on variants flip the process-wide tracing flag, so each is
   measured on its own before the table prints. *)
let e20 () =
  let incr = bench_metrics_incr () in
  let span_off = bench_trace_span ~enabled:false () in
  let span_on = bench_trace_span ~enabled:true () in
  let stmt_off = bench_semantics_statement ~traced:false () in
  let stmt_on = bench_semantics_statement ~traced:true () in
  report ~id:"E20" ~title:"observability: span and counter costs, tracing off vs on"
    ~notes:"a disabled span is one atomic load; enabled spans pay two clock reads and an allocation; counters are one atomic rmw"
    [
      ("metrics counter incr", ns incr);
      ("span site, tracing disabled", ns span_off);
      ("span site, tracing enabled", ns span_on);
      ("semantics statement, tracing disabled", ns stmt_off);
      ("semantics statement, tracing enabled", ns stmt_on);
      ( "disabled span / statement (gate: <= 0.02)",
        fun () -> Fmt.str "%8.4f" (span_off /. stmt_off) );
    ]

(* E21: service sessions — warm session vs per-request setup           *)

let e21 () =
  let warm = bench_session_warm () in
  let cold = bench_session_cold () in
  report ~id:"E21" ~title:"service sessions: warm session vs per-request setup"
    ~notes:"setup re-checks the schema and re-plans every constraint and assignment against a cold plan cache; the warm session keeps those and pays only execution"
    [
      ("request on a warm session", ns warm);
      ("request paying full session setup", ns cold);
      ("warm-session speedup (gate: >= 5x)", ratio (cold /. warm));
    ]

(* E22: crash recovery — snapshot-bounded replay vs full history       *)

let e22 () =
  let full, snapshot = bench_recovery () in
  report ~id:"E22" ~title:"recovery: snapshot-bounded replay vs full journal replay"
    ~notes:"full recovery re-executes every committed entry, constraint checks included; a durable snapshot installs the captured state directly and re-runs only the tail committed after it"
    [
      (Fmt.str "full replay (%d entries)" recovery_entries, ns full);
      (Fmt.str "snapshot + %d-entry tail" recovery_tail, ns snapshot);
      ("snapshot-bounded speedup", ratio (full /. snapshot));
    ]

(* E23: the parallel refinement sweep — work-stealing speedups *)

let e23 () =
  let j1 = bench_check23 ~jobs:1 () in
  let j2 = bench_check23 ~jobs:2 () in
  let j4 = bench_check23 ~jobs:4 () in
  report ~id:"E23" ~title:"work-stealing Pool: Check23 speedups"
    ~notes:
      (Fmt.str
         "persistent worker domains + work stealing remove the per-map spawn and \
          straggler barrier; every domain reads the one immutable snapshot. \
          Speedups need real cores (this machine: %d); the CI gate \
          requires >= 1.5x at 4 domains on a runner with >= 4 cores"
         (Pool.recommended_jobs ()))
    [
      ("check23 sweep, 1 domain", ns j1);
      ("check23 sweep, 2 domains", ns j2);
      ("check23 sweep, 4 domains", ns j4);
      ("check23 speedup, 2 domains", ratio (j1 /. j2));
      ("check23 speedup, 4 domains", ratio (j1 /. j4));
    ]

(* E24: incremental evaluation — differential constraint checks on a
   write-heavy commit burst *)

let e24 () =
  let incr_ns = bench_constraint_burst ~incremental:true () in
  let scratch_ns = bench_constraint_burst ~incremental:false () in
  let with_key n =
    ( Fmt.str "commit, %d constraints + key, n = %d" burst_k n,
      ns (bench_constraint_burst ~key:true ~n ~incremental:true ()) )
  in
  report ~id:"E24" ~title:"incremental evaluation: delta-driven constraint checks per commit"
    ~notes:
      (Fmt.str
         "from-scratch checking re-evaluates every compiled plan over all %d \
          tuples per commit; the differential layer takes the one-tuple delta \
          from the commit's write set and pushes it through each materialized \
          plan, so the per-commit cost drops from K x O(|db|) to K x O(|delta|); \
          with a key constraint, a self-join of the written relation, too"
         burst_n)
    ([
       (Fmt.str "commit, %d constraints, from scratch" burst_k, ns scratch_ns);
       (Fmt.str "commit, %d constraints, differential" burst_k, ns incr_ns);
       ("delta speedup (gate: >= 5x)", ratio (scratch_ns /. incr_ns));
     ]
    @ List.map with_key [ 2000; 8000; 32000 ])

(* E25: the socket gateway — pipelined throughput end to end *)

let e25 () =
  let rps = bench_gateway_rps () in
  report ~id:"E25" ~title:"gateway throughput: pipelined clients over the socket server"
    ~notes:"the pipelined connection loop answers every buffered frame into one corked flush, so throughput is bounded by execution, not by per-request round-trips; the CI gate floors this at 200 req/s, an absolute sanity floor rather than a machine-relative number"
    [
      ( Fmt.str "%d connections x %d requests, window %d" gw_clients gw_requests
          gw_window,
        count "req/s" rps );
    ]

(* E26: streaming temporal monitors — per-commit overhead *)

let e26 () =
  let plain = bench_monitor_commit ~monitored:false () in
  let monitored = bench_monitor_commit ~monitored:true () in
  report ~id:"E26" ~title:"streaming monitors: per-commit overhead on the session path"
    ~notes:"each commit pays one delta extraction plus, per transition axiom, a two-state widened delta pushed through the materialized time-sorted plan; static axioms re-check only when their relations changed, so the overhead tracks the delta, not the database"
    [
      ("commit, no monitors", ns plain);
      ("commit, 2-axiom theory monitored", ns monitored);
      ("monitored / plain (gate: <= 3x)", ratio (monitored /. plain));
    ]

(* E27: allocation sweeps — what one commit and the recovery path's
   active domain allocate as the store grows *)

let e27 () =
  let sweep name f =
    let words = List.map (fun n -> (n, f ~n)) alloc_sizes in
    List.map (fun (n, w) -> (Fmt.str "%s, n = %d" name n, count "words" w)) words
    @
    match words with
    | [ (n0, w0); (n1, w1) ] ->
      [ (Fmt.str "%s, n = %d / n = %d" name n1 n0, ratio (w1 /. w0)) ]
    | _ -> []
  in
  let commit = sweep "differential commit" (fun ~n -> bench_commit_alloc ~n ()) in
  let domain = sweep "Db.active_domain" bench_active_domain_alloc in
  let reply = sweep "commit reply render" bench_reply_alloc in
  let selfjoin =
    sweep "commit with a key constraint" (fun ~n -> bench_commit_alloc ~key:true ~n ())
  in
  let monitor = sweep "monitored offer/retract commit" bench_monitor_alloc in
  let read = sweep "warm point + exists query" bench_read_alloc in
  report ~id:"E27" ~title:"allocation sweeps: minor-heap words at two store sizes"
    ~notes:"the commit's delta comes from its write set, so a one-tuple commit allocates the same at both sizes (gate: <= 1.5x); the active domain sorts each column once, O(n log n) (gate: <= 6x); a commit reply re-renders only the text chunks the commit touched (gate: <= 1.5x); a key constraint's self-join and a monitor's antijoins look the written relation up through column indexes the commit carried forward (gates: <= 1.5x); a point query is one membership probe and an existence query an index lookup tested for emptiness (gate: <= 1.5x)"
    (commit @ domain @ reply @ selfjoin @ monitor @ read)

(* --metrics-json: run a fixed deterministic workload (the small
   university verification, one domain) from zeroed instruments and
   print every counter delta — the numbers behind EXPERIMENTS.md's E20
   table. Counter deltas are exact and machine-independent; histogram
   timings are not, so only their counts are emitted. *)
let run_metrics_json () =
  Metrics.reset ();
  let v = Design.verify ~domain:University.small_domain ~depth:2 University.design in
  if not (Design.verified v) then
    invalid_arg "bench: the university design failed to verify";
  let snap = Metrics.snapshot () in
  let pp_counters ppf cs =
    Fmt.(
      list ~sep:(any ",@,") (fun ppf (k, n) ->
          Fmt.pf ppf "@[%s: %d@]" (json_key k) n))
      ppf cs
  in
  let pp_hist_counts ppf hs =
    Fmt.(
      list ~sep:(any ",@,") (fun ppf (k, h) ->
          Fmt.pf ppf "@[%s: %d@]" (json_key k) h.Metrics.h_count))
      ppf hs
  in
  Fmt.pr
    "@[<v 2>{@,\
     \"schema_version\": 1,@,\
     \"workload\": \"verify university (small domain, depth 2, jobs 1)\",@,\
     @[<v 2>\"counters\": {@,%a@]@,},@,\
     @[<v 2>\"histogram_counts\": {@,%a@]@,}@]@,}@."
    pp_counters snap.Metrics.counters pp_hist_counts snap.Metrics.histograms

let () =
  if Array.exists (( = ) "--metrics-json") Sys.argv then begin
    run_metrics_json ();
    exit 0
  end;
  if Array.exists (( = ) "--json") Sys.argv then begin
    run_json ();
    exit 0
  end;
  Fmt.pr "fdbs benchmark harness — experiments E1..E27 (see DESIGN.md / EXPERIMENTS.md)@.";
  Fmt.pr "paper: Casanova, Veloso & Furtado, PODS 1984 (no quantitative tables;@.";
  Fmt.pr "the experiments measure the framework's checkers and evaluators).@.";
  e1 ();
  e2 ();
  e3 ();
  e4 ();
  e5 ();
  e6 ();
  e7 ();
  e8 ();
  e9 ();
  e10 ();
  e11 ();
  e12 ();
  e13 ();
  e14 ();
  e15 ();
  e16 ();
  e17 ();
  e19 ();
  e20 ();
  e21 ();
  e22 ();
  e23 ();
  e24 ();
  e25 ();
  e26 ();
  e27 ();
  Fmt.pr "@.done.@."
