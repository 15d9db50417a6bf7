(* Tests for the differential-maintenance layer: the per-operator delta
   rules agree with fresh evaluation tuple-for-tuple on random update
   sequences; transactional constraint checking is observationally
   identical with materialization on and off (including fallback paths:
   scalar writes, stale materializations); a rolled-back transaction
   never publishes a stale materialization; ad-hoc extra constraints
   bypass the shared cache entirely; and the semi-naive closure agrees
   with the naive oracle. *)

open Fdbs_kernel
open Fdbs_rpr

let v s = Value.Sym s

(* A schema with an antijoin-shaped constraint (forall/imp), a
   join-shaped one (exists under forall), an unconstrained graph
   relation, deleting and while-looping procs, and a proc that writes a
   global scalar (the delta-fallback trigger). *)
let deltas_src =
  {|
schema deltas

relation OFFERED(course)
relation TAKES(student, course)
relation EDGE(node, node)

constraint takes_offered: forall s:student. forall c:course. (TAKES(s, c) -> OFFERED(c))
constraint takes_nonempty_offer: forall s:student. forall c:course. (TAKES(s, c) -> (exists c2:course. OFFERED(c2)))

proc initiate() =
  (OFFERED := {(c:course) | false} ;
   (TAKES := {(s:student, c:course) | false} ;
    EDGE := {(a:node, b:node) | false}))

proc offer(c: course) = insert OFFERED(c)

proc retract(c: course) = delete OFFERED(c)

proc enroll_unchecked(s: student, c: course) = insert TAKES(s, c)

proc leave(s: student, c: course) = delete TAKES(s, c)

proc link(a: node, b: node) = insert EDGE(a, b)

proc drain_all(c: course) = while (OFFERED(c)) do delete OFFERED(c)

proc mark(c: course) = last := c

end-schema
|}

let schema = Rparser.schema_exn deltas_src

let courses = [ v "cs101"; v "cs102"; v "cs103" ]
let students = [ v "ana"; v "bob" ]
let nodes = [ v "n1"; v "n2"; v "n3" ]

let domain =
  Domain.of_list
    [ ("course", courses); ("student", students); ("node", nodes) ]

let env = Semantics.env ~domain schema
let db0 = Schema.empty_db schema
let db = Alcotest.testable Db.pp Db.equal

(* Restore the process-wide materialization toggle whatever a test
   does; every test also starts from a clean cache so counter deltas
   are deterministic. *)
let with_clean_caches f =
  Planner.clear ();
  Planner.set_materialization true;
  Fun.protect ~finally:(fun () -> Planner.set_materialization true) f

(* ------------------------------------------------------------------ *)
(* Random database states and update sequences                         *)
(* ------------------------------------------------------------------ *)

let random_op_gen : (Db.t -> Db.t) QCheck.Gen.t =
  let open QCheck.Gen in
  let touch r tu add st =
    let rel = Db.relation_exn st r in
    Db.with_relation r
      (if add then Relation.add tu rel else Relation.remove tu rel)
      st
  in
  let* add = bool in
  oneof
    [
      map (fun c -> touch "OFFERED" [ c ] add) (oneofl courses);
      map2 (fun s c -> touch "TAKES" [ s; c ] add) (oneofl students) (oneofl courses);
      map2 (fun a b -> touch "EDGE" [ a; b ] add) (oneofl nodes) (oneofl nodes);
    ]

let apply_ops ops st = List.fold_left (fun st op -> op st) st ops

let random_db_pair_gen =
  let open QCheck.Gen in
  let* setup = list_size (int_range 0 12) random_op_gen in
  let* updates = list_size (int_range 0 8) random_op_gen in
  let before = apply_ops setup db0 in
  return (before, apply_ops updates before)

let arbitrary_db_pair =
  QCheck.make
    ~print:(fun (a, b) -> Fmt.str "before=%a@.after=%a" Db.pp a Db.pp b)
    random_db_pair_gen

(* Plans covering every operator the delta rules rewrite: the schema
   constraints' own compiled plans (antijoin towers, joins under
   projections) plus hand-built Select/Project/Product/Union/Join/
   Antijoin expressions. *)
let plans =
  let compiled =
    List.filter_map
      (fun (_, wff) -> Planner.plan_wff schema wff)
      schema.Schema.constraints
  in
  let open Relalg in
  compiled
  @ [
      Project ([ 1 ], Rel "TAKES");
      Select ([ Eq (Acol 0, Acol 1) ], Rel "EDGE");
      Select ([ Eq (Acol 0, Aterm (Fdbs_logic.Term.Lit (v "cs101"))) ], Rel "OFFERED");
      Union (Rel "OFFERED", Project ([ 1 ], Rel "TAKES"));
      Product (Rel "OFFERED", Rel "OFFERED");
      Join ([ Rel "TAKES"; Rel "OFFERED" ], [ Eq (Acol 1, Acol 2) ]);
      Join ([ Rel "EDGE"; Rel "EDGE" ], [ Eq (Acol 1, Acol 2) ]);
      Antijoin (Rel "TAKES", Rel "OFFERED", [ Acol 1 ]);
      Antijoin
        ( Rel "EDGE",
          Project ([ 1 ], Rel "EDGE"),
          [ Acol 0 ] );
      (* the monitors' shapes: an antijoin keyed by a column and a
         constant, a closed (nullary) projection of an antijoin, and a
         key constraint's self-join *)
      Antijoin
        ( Rel "TAKES",
          Product (Rel "OFFERED", Rel "OFFERED"),
          [ Acol 1; Aterm (Fdbs_logic.Term.Lit (v "cs101")) ] );
      Project ([], Antijoin (Rel "TAKES", Rel "OFFERED", [ Acol 1 ]));
      Join ([ Rel "TAKES"; Rel "TAKES" ], [ Eq (Acol 0, Acol 2); Neq (Acol 1, Acol 3) ]);
    ]

(* One step, then the step back: the second advance starts from the
   outputs the first one patched, whose column indexes it carried. *)
let prop_advance_agrees =
  QCheck.Test.make
    ~name:"delta advance agrees with fresh evaluation (all operators)"
    ~count:300 arbitrary_db_pair (fun (before, after) ->
      let step (n0 : Delta.node) plan ~before ~after =
        let delta = Delta.of_dbs ~before ~after in
        let n1, ins, del = Delta.advance ~domain ~after delta plan n0 in
        let fresh = Relalg.eval ~domain after plan in
        if
          Relation.equal n1.Delta.out fresh
          && Relation.equal ins (Relation.diff fresh n0.Delta.out)
          && Relation.equal del (Relation.diff n0.Delta.out fresh)
        then Some n1
        else None
      in
      List.for_all
        (fun plan ->
          let n0 = Delta.materialize ~domain before plan in
          match step n0 plan ~before ~after with
          | Some n1 -> step n1 plan ~before:after ~after:before <> None
          | None -> false)
        plans)

let prop_of_dbs_apply_roundtrip =
  QCheck.Test.make ~name:"of_dbs/apply roundtrip and compose" ~count:300
    (QCheck.make
       ~print:(fun (a, b, c) ->
         Fmt.str "a=%a@.b=%a@.c=%a" Db.pp a Db.pp b Db.pp c)
       QCheck.Gen.(
         let* a, b = random_db_pair_gen in
         let* more = list_size (int_range 0 8) random_op_gen in
         return (a, b, apply_ops more b)))
    (fun (a, b, c) ->
      let dab = Delta.of_dbs ~before:a ~after:b in
      let dbc = Delta.of_dbs ~before:b ~after:c in
      let dac = Delta.of_dbs ~before:a ~after:c in
      Db.equal (Delta.apply dab a) b
      && Db.equal (Delta.apply dac a) c
      && Db.equal (Delta.apply (Delta.compose dab dbc) a) c)

(* ------------------------------------------------------------------ *)
(* Incremental transactions agree with from-scratch checking           *)
(* ------------------------------------------------------------------ *)

let random_call_gen =
  let open QCheck.Gen in
  oneof
    [
      return ("initiate", []);
      map (fun c -> ("offer", [ c ])) (oneofl courses);
      map (fun c -> ("retract", [ c ])) (oneofl courses);
      map2 (fun s c -> ("enroll_unchecked", [ s; c ])) (oneofl students) (oneofl courses);
      map2 (fun s c -> ("leave", [ s; c ])) (oneofl students) (oneofl courses);
      map2 (fun a b -> ("link", [ a; b ])) (oneofl nodes) (oneofl nodes);
      map (fun c -> ("drain_all", [ c ])) (oneofl courses);
      map (fun c -> ("mark", [ c ])) (oneofl courses);
    ]

let arbitrary_calls =
  QCheck.make
    ~print:(Fmt.str "%a" Fmt.(list ~sep:(any "; ") Journal.pp_call))
    QCheck.Gen.(list_size (int_range 0 12) random_call_gen)

(* Each call commits (or rolls back) as its own transaction, so the
   materialization advances across the sequence like a server's store
   would. Verdicts and every intermediate state must match the
   from-scratch run exactly. *)
let run_seq txn calls =
  List.fold_left
    (fun (st, verdicts) call ->
      match Txn.run txn [ call ] st with
      | Ok st' -> (st', true :: verdicts)
      | Error rb -> (rb.Txn.restored, false :: verdicts))
    (db0, []) calls

let prop_txn_incremental_agrees =
  QCheck.Test.make
    ~name:"incremental constraint checks agree with from-scratch (txn)"
    ~count:150 arbitrary_calls (fun calls ->
      with_clean_caches (fun () ->
          let txn = Txn.make env in
          let incr_state, incr_verdicts = run_seq txn calls in
          Planner.set_materialization false;
          let full_state, full_verdicts = run_seq txn calls in
          Db.equal incr_state full_state && incr_verdicts = full_verdicts))

(* ------------------------------------------------------------------ *)
(* Deterministic unit tests: counters, rollback, extras, fallback      *)
(* ------------------------------------------------------------------ *)

let commit_exn txn calls st =
  match Txn.run txn calls st with
  | Ok st' -> st'
  | Error rb -> Alcotest.failf "unexpected rollback: %a" Txn.pp_rollback rb

let test_delta_hits () =
  with_clean_caches (fun () ->
      let txn = Txn.make env in
      let st = commit_exn txn [ ("offer", [ v "cs101" ]) ] db0 in
      let h0, f0, m0 = Planner.delta_stats () in
      Alcotest.(check int) "cold commit: no hits yet" 0 h0;
      Alcotest.(check int) "cold commit: no fallbacks" 0 f0;
      Alcotest.(check int)
        "cold commit: one materialization per constraint"
        (List.length schema.Schema.constraints)
        m0;
      let st = commit_exn txn [ ("offer", [ v "cs102" ]) ] st in
      let st = commit_exn txn [ ("enroll_unchecked", [ v "ana"; v "cs101" ]) ] st in
      ignore st;
      let h, f, m = Planner.delta_stats () in
      Alcotest.(check int)
        "two warm commits hit per constraint"
        (2 * List.length schema.Schema.constraints)
        h;
      Alcotest.(check int) "no fallbacks on pure relation writes" 0 f;
      Alcotest.(check int) "no further misses" m0 m)

let test_scalar_write_falls_back () =
  with_clean_caches (fun () ->
      let txn = Txn.make env in
      let st = commit_exn txn [ ("offer", [ v "cs101" ]) ] db0 in
      (* mark writes a global scalar: the delta carries
         scalars_changed, no rule applies, the check re-evaluates in
         full — and stays correct *)
      let st = commit_exn txn [ ("mark", [ v "cs101" ]) ] st in
      let _, f, _ = Planner.delta_stats () in
      Alcotest.(check bool) "scalar write fell back" true (f >= 1);
      (* the fallback republished against the new state: the next pure
         relational commit advances incrementally again *)
      let h0, _, _ = Planner.delta_stats () in
      let st = commit_exn txn [ ("offer", [ v "cs102" ]) ] st in
      ignore st;
      let h1, _, _ = Planner.delta_stats () in
      Alcotest.(check int)
        "next commit hits again"
        (h0 + List.length schema.Schema.constraints)
        h1)

let test_rollback_publishes_nothing () =
  with_clean_caches (fun () ->
      let txn = Txn.make env in
      let st = commit_exn txn [ ("offer", [ v "cs101" ]) ] db0 in
      let h0, f0, _ = Planner.delta_stats () in
      (* a violating transaction: checked (takes_offered fails), rolled
         back — its materializations must NOT be published *)
      (match Txn.run txn [ ("enroll_unchecked", [ v "ana"; v "cs103" ]) ] st with
       | Ok _ -> Alcotest.fail "expected a constraint rollback"
       | Error rb ->
         Alcotest.check db "rollback restored the snapshot" st rb.Txn.restored);
      (* the next commit advances from the committed state: if the
         rolled-back state had been published, this would be a
         stale-state fallback instead of a hit *)
      let _ = commit_exn txn [ ("offer", [ v "cs102" ]) ] st in
      let h1, f1, _ = Planner.delta_stats () in
      Alcotest.(check int) "no stale-materialization fallback" f0 f1;
      Alcotest.(check bool)
        "commit after rollback still hits"
        true
        (h1 >= h0 + List.length schema.Schema.constraints))

let test_extra_constraints_bypass_shared_cache () =
  with_clean_caches (fun () ->
      let txn = Txn.make env in
      let st = commit_exn txn [ ("offer", [ v "cs101" ]) ] db0 in
      let h0, f0, m0 = Planner.delta_stats () in
      (* an ad-hoc extra structurally equal to a schema constraint: it
         must neither be served from the shared materialization nor
         publish into it *)
      let extra =
        match schema.Schema.constraints with
        | (name, wff) :: _ -> [ (name ^ "_adhoc", wff) ]
        | [] -> Alcotest.fail "schema has no constraints"
      in
      let txn_extra = Txn.make ~extra_constraints:extra env in
      let st = commit_exn txn_extra [ ("offer", [ v "cs102" ]) ] st in
      let h1, f1, m1 = Planner.delta_stats () in
      Alcotest.(check int)
        "extras do not touch the delta counters (schema constraints only)"
        (h0 + List.length schema.Schema.constraints)
        h1;
      Alcotest.(check int) "extras cause no fallbacks" f0 f1;
      Alcotest.(check int) "extras cause no misses" m0 m1;
      (* and the shared slots were advanced by the schema checks, not
         poisoned by the extra: the next plain commit still hits *)
      let _ = commit_exn txn [ ("offer", [ v "cs103" ]) ] st in
      let h2, f2, _ = Planner.delta_stats () in
      Alcotest.(check int)
        "shared cache intact after extras"
        (h1 + List.length schema.Schema.constraints)
        h2;
      Alcotest.(check int) "still no fallbacks" f1 f2)

let test_stale_state_falls_back_correctly () =
  with_clean_caches (fun () ->
      let txn = Txn.make env in
      (* two independent stores interleaving commits under the same
         schema: each sees the other's publication as stale state and
         falls back — verdicts stay correct on both *)
      let a = commit_exn txn [ ("offer", [ v "cs101" ]) ] db0 in
      let b = commit_exn txn [ ("offer", [ v "cs102" ]) ] db0 in
      let a = commit_exn txn [ ("enroll_unchecked", [ v "ana"; v "cs101" ]) ] a in
      let b = commit_exn txn [ ("enroll_unchecked", [ v "bob"; v "cs102" ]) ] b in
      let _, f, _ = Planner.delta_stats () in
      Alcotest.(check bool) "interleaving caused stale fallbacks" true (f >= 1);
      Alcotest.(check bool)
        "store A state correct" true
        (Relation.mem [ v "ana"; v "cs101" ] (Db.relation_exn a "TAKES"));
      Alcotest.(check bool)
        "store B state correct" true
        (Relation.mem [ v "bob"; v "cs102" ] (Db.relation_exn b "TAKES")))

(* ------------------------------------------------------------------ *)
(* Write-set deltas against the of_dbs oracle                          *)
(* ------------------------------------------------------------------ *)

let delta_equal (a : Delta.t) (b : Delta.t) =
  Delta.SMap.equal Relation.equal a.Delta.inserts b.Delta.inserts
  && Delta.SMap.equal Relation.equal a.Delta.deletes b.Delta.deletes
  && Bool.equal a.Delta.scalars_changed b.Delta.scalars_changed

(* Statement leaves over the scalar constants a, b (courses) and s (a
   student): inserts and deletes of tuples that may or may not be
   present, relational assignments (emptying, complementing, deriving,
   filtering), a test, a loop, and scalar assignments. *)
let ws_params = [ ("a", "course"); ("b", "course"); ("s", "student") ]
let ws_env = Semantics.env ~domain ~consts:[ ("a", v "cs101"); ("b", v "cs102"); ("s", v "ana") ] schema

let ws_leaves =
  List.map
    (fun src ->
      match Rparser.stmt ~params:ws_params schema src with
      | Ok st -> (src, st)
      | Error e -> failwith (Fmt.str "%s: %a" src Fdbs_kernel.Error.pp e))
    [
      "insert OFFERED(a)";
      "insert OFFERED(b)";
      "delete OFFERED(a)";
      "delete OFFERED(b)";
      "insert TAKES(s, a)";
      "delete TAKES(s, a)";
      "OFFERED := {(c:course) | false}";
      "OFFERED := {(c:course) | ~OFFERED(c)}";
      "OFFERED := {(c:course) | exists x:student. TAKES(x, c)}";
      "TAKES := {(x:student, c:course) | TAKES(x, c) & OFFERED(c)}";
      "test (OFFERED(a))";
      "while (OFFERED(a)) do delete OFFERED(a)";
      "last := a";
      "last := b";
      "skip";
    ]

let ws_stmt_gen : Stmt.t QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf = map snd (oneofl ws_leaves) in
  sized_size (int_range 0 4)
    (fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (2, map2 (fun p q -> Stmt.Union (p, q)) (self (n / 2)) (self (n / 2)));
               (3, map2 (fun p q -> Stmt.Seq (p, q)) (self (n / 2)) (self (n / 2)));
               (1, map (fun p -> Stmt.Star p) (self (n - 1)));
             ]))

let arbitrary_ws_case =
  QCheck.make
    ~print:(fun (before, st) -> Fmt.str "before=%a@.stmt=%a" Db.pp before Stmt.pp st)
    QCheck.Gen.(
      let* before, _ = random_db_pair_gen in
      let* last = oneofl (None :: List.map Option.some courses) in
      let before =
        match last with Some c -> Db.with_scalar "last" c before | None -> before
      in
      let* st = ws_stmt_gen in
      return (before, st))

let prop_exec_write_sets =
  QCheck.Test.make ~name:"exec write sets equal of_dbs on random bodies" ~count:300
    arbitrary_ws_case (fun (before, st) ->
      let agrees (after, d) = delta_equal d (Delta.of_dbs ~before ~after) in
      match Semantics.exec ws_env st before with
      | outs -> List.for_all agrees outs
      | exception Semantics.Exec_error _ -> QCheck.assume_fail ())

(* Procedure calls write their parameters and restore them: the
   outcome's scalar flag must compare the scalars, not the writes. *)
let prop_call_write_sets =
  QCheck.Test.make ~name:"call write sets equal of_dbs" ~count:200
    (QCheck.make
       ~print:(fun (before, call) ->
         Fmt.str "before=%a@.call=%a" Db.pp before Journal.pp_call call)
       QCheck.Gen.(pair (map fst random_db_pair_gen) random_call_gen))
    (fun (before, (name, args)) ->
      let proc = Option.get (Schema.find_proc schema name) in
      List.for_all
        (fun (after, d) -> delta_equal d (Delta.of_dbs ~before ~after))
        (Semantics.call_delta env proc args before))

(* Semi-naive closure against the naive re-composition oracle. *)
let naive_closure r =
  let rec go acc =
    let next = Relation.union acc (Relation.compose acc r) in
    if Relation.equal next acc then acc else go next
  in
  go r

let prop_closure_semi_naive =
  QCheck.Test.make ~name:"semi-naive closure agrees with the naive oracle"
    ~count:300
    (QCheck.make
       ~print:(Fmt.str "%a" Fmt.(list (list Value.pp)))
       QCheck.Gen.(
         list_size (int_range 0 20)
           (map2 (fun a b -> [ a; b ]) (oneofl nodes) (oneofl nodes))))
    (fun edges ->
      let r = Relation.of_list [ "node"; "node" ] edges in
      Relation.equal (Relation.transitive_closure r) (naive_closure r))

(* A commit hands its write-set delta to its hook: the hook's [of_dbs]
   on the commit's two states answers that one delta value, not a
   fresh diff each call, and it equals the diff. *)
let test_hook_gets_commit_delta () =
  with_clean_caches (fun () ->
      let seen = ref None in
      let on_commit ~before ~after =
        let d = Delta.of_dbs ~before ~after in
        seen := Some (before, after, d, d == Delta.of_dbs ~before ~after);
        Ok ignore
      in
      let txn = Txn.make ~on_commit env in
      let st = commit_exn txn [ ("offer", [ v "cs101" ]); ("offer", [ v "cs102" ]) ] db0 in
      let st = commit_exn txn [ ("retract", [ v "cs101" ]); ("offer", [ v "cs103" ]) ] st in
      match !seen with
      | None -> Alcotest.fail "the hook did not run"
      | Some (before, after, d, remembered) ->
        Alcotest.(check bool) "the commit's after state" true (after == st);
        Alcotest.(check bool) "the commit's delta, not a diff" true remembered;
        (* a record for another pair makes [of_dbs] diff this one *)
        Delta.remember ~before:db0 ~after:db0 Delta.empty;
        Alcotest.(check bool) "equals the diff" true
          (delta_equal d (Delta.of_dbs ~before ~after)))

let suite =
  [
    Alcotest.test_case "delta hits across warm commits" `Quick test_delta_hits;
    Alcotest.test_case "scalar write falls back (and recovers)" `Quick
      test_scalar_write_falls_back;
    Alcotest.test_case "rollback publishes nothing" `Quick
      test_rollback_publishes_nothing;
    Alcotest.test_case "extra constraints bypass the shared cache" `Quick
      test_extra_constraints_bypass_shared_cache;
    Alcotest.test_case "stale materializations fall back correctly" `Quick
      test_stale_state_falls_back_correctly;
    Alcotest.test_case "a commit hook's of_dbs answers the commit delta" `Quick
      test_hook_gets_commit_delta;
    QCheck_alcotest.to_alcotest prop_advance_agrees;
    QCheck_alcotest.to_alcotest prop_of_dbs_apply_roundtrip;
    QCheck_alcotest.to_alcotest prop_txn_incremental_agrees;
    QCheck_alcotest.to_alcotest prop_closure_semi_naive;
    QCheck_alcotest.to_alcotest prop_exec_write_sets;
    QCheck_alcotest.to_alcotest prop_call_write_sets;
  ]
