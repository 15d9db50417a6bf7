(* Tests for the representation level: relations, database states,
   relational calculus and algebra, statement semantics (m), procedures
   (k), the denotational validation of Section 5.1.2, and the schema
   parser with the paper's Section 5.2 specification. *)

open Fdbs_kernel
open Fdbs_logic
open Fdbs_rpr

let v s = Value.Sym s

(* The paper's Section 5.2 schema (with the OFFERED sort fixed: the
   paper's SCL lists OFFERED(Students) by typo; it is a set of courses). *)
let university_src =
  {|
schema university

relation OFFERED(course)
relation TAKES(student, course)

proc initiate() =
  (OFFERED := {(c:course) | false} ; TAKES := {(s:student, c:course) | false})

proc offer(c: course) = insert OFFERED(c)

proc cancel(c: course) =
  if (~(exists s:student. TAKES(s, c))) then delete OFFERED(c)

proc enroll(s: student, c: course) =
  if (OFFERED(c)) then insert TAKES(s, c)

proc transfer(s: student, c: course, c2: course) =
  if (TAKES(s, c) & ~TAKES(s, c2) & OFFERED(c2))
  then (delete TAKES(s, c) ; insert TAKES(s, c2))

end-schema
|}

let schema = Rparser.schema_exn university_src

let domain =
  Domain.of_list
    [
      ("course", [ v "cs101"; v "cs102" ]);
      ("student", [ v "ana"; v "bob" ]);
    ]

let env = Semantics.env ~domain schema

let db0 = Semantics.call_det_exn env "initiate" [] (Schema.empty_db schema)

let run name args db = Semantics.call_det_exn env name args db

let offered db c = Semantics.query env db (Formula.Pred ("OFFERED", [ Term.Lit (v c) ]))

let takes db s c =
  Semantics.query env db (Formula.Pred ("TAKES", [ Term.Lit (v s); Term.Lit (v c) ]))

let test_schema_well_formed () =
  Alcotest.(check (list string)) "no schema errors" [] (Schema.check schema)

let test_undeclared_relation_rejected () =
  let bad =
    {|
schema bad
relation R(course)
proc p(c: course) = insert S(c)
end-schema
|}
  in
  match Rparser.schema bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "undeclared relation accepted"

let test_initiate_offer_enroll () =
  Alcotest.(check bool) "initially nothing offered" false (offered db0 "cs101");
  let db1 = run "offer" [ v "cs101" ] db0 in
  Alcotest.(check bool) "offered after offer" true (offered db1 "cs101");
  let db2 = run "enroll" [ v "ana"; v "cs101" ] db1 in
  Alcotest.(check bool) "takes after enroll" true (takes db2 "ana" "cs101");
  Alcotest.(check bool) "other student unaffected" false (takes db2 "bob" "cs101")

let test_cancel_guard () =
  let db1 = run "offer" [ v "cs101" ] db0 in
  let db2 = run "enroll" [ v "ana"; v "cs101" ] db1 in
  (* blocked: a student takes the course *)
  let db3 = run "cancel" [ v "cs101" ] db2 in
  Alcotest.(check bool) "cancel blocked" true (offered db3 "cs101");
  (* unblocked on a course nobody takes *)
  let db4 = run "cancel" [ v "cs101" ] db1 in
  Alcotest.(check bool) "cancel succeeds" false (offered db4 "cs101")

let test_transfer () =
  let db1 = run "offer" [ v "cs101" ] db0 in
  let db2 = run "offer" [ v "cs102" ] db1 in
  let db3 = run "enroll" [ v "ana"; v "cs101" ] db2 in
  let db4 = run "transfer" [ v "ana"; v "cs101"; v "cs102" ] db3 in
  Alcotest.(check bool) "moved to cs102" true (takes db4 "ana" "cs102");
  Alcotest.(check bool) "left cs101" false (takes db4 "ana" "cs101");
  (* transfer to an unoffered course is a no-op *)
  let db5 = run "transfer" [ v "ana"; v "cs101"; v "cs102" ] db3 in
  ignore db5;
  let db6 =
    run "transfer" [ v "ana"; v "cs102"; v "cs101" ] (run "cancel" [ v "cs101" ] db4)
  in
  Alcotest.(check bool) "no-op transfer target unoffered" true (takes db6 "ana" "cs102")

let test_insert_delete_desugar () =
  (* the derived forms and their core desugarings agree *)
  let sorts_of = Schema.sorts_of schema in
  let stmt = Stmt.Insert ("OFFERED", [ Term.Lit (v "cs101") ]) in
  let core = Stmt.desugar ~sorts_of stmt in
  (match core with
   | Stmt.Rel_assign ("OFFERED", _) -> ()
   | _ -> Alcotest.fail "insert must desugar to a relational assignment");
  let out1 = Semantics.exec env stmt db0 in
  let out2 = Semantics.exec env core db0 in
  (match (out1, out2) with
   | [ (a, _) ], [ (b, _) ] -> Alcotest.(check bool) "same outcome" true (Db.equal a b)
   | _ -> Alcotest.fail "expected deterministic outcomes")

let test_while_desugar_agree () =
  (* while as derived construct vs its star desugaring *)
  let sorts_of = Schema.sorts_of schema in
  let body =
    Rparser.stmt schema
      "while (OFFERED(cs101)) do delete OFFERED(cs101)"
      ~params:[ ("cs101", "course") ]
    |> Result.get_ok
  in
  let db1 = run "offer" [ v "cs101" ] db0 in
  let env = Semantics.env ~domain ~consts:[ ("cs101", v "cs101") ] schema in
  let out_direct = Semantics.exec env body db1 in
  let out_core = Semantics.exec env (Stmt.desugar ~sorts_of body) db1 in
  (match (out_direct, out_core) with
   | [ (a, _) ], [ (b, _) ] ->
     Alcotest.(check bool) "course deleted" false (offered a "cs101");
     Alcotest.(check bool) "desugaring agrees" true (Db.equal a b)
   | _ -> Alcotest.fail "expected single outcomes")

let test_union_nondeterminism () =
  let s =
    Rparser.stmt schema "insert OFFERED(c) u skip" ~params:[ ("c", "course") ]
    |> Result.get_ok
  in
  let env = Semantics.env ~domain ~consts:[ ("c", v "cs101") ] schema in
  let outs = Semantics.exec env s db0 in
  Alcotest.(check int) "two outcomes" 2 (List.length outs)

let test_test_blocks () =
  let s = Rparser.stmt schema "test (OFFERED(c))" ~params:[ ("c", "course") ] in
  let s = Result.get_ok s in
  let env = Semantics.env ~domain ~consts:[ ("c", v "cs101") ] schema in
  Alcotest.(check int) "blocked on empty db" 0 (List.length (Semantics.exec env s db0))

let test_star_closure () =
  (* (insert OFFERED(cs101) u insert OFFERED(cs102))* reaches all four
     subsets of {cs101, cs102} *)
  let s =
    Rparser.stmt schema "(insert OFFERED(a) u insert OFFERED(b))*"
      ~params:[ ("a", "course"); ("b", "course") ]
    |> Result.get_ok
  in
  let env =
    Semantics.env ~domain ~consts:[ ("a", v "cs101"); ("b", v "cs102") ] schema
  in
  let outs = Semantics.exec env s db0 in
  Alcotest.(check int) "four reachable contents" 4 (List.length outs)

(* --- relational calculus vs algebra ------------------------------- *)

let rterm_src_takes_unoffered : Stmt.rterm =
  (* {(s, c) | TAKES(s,c) & ~OFFERED(c)} *)
  let sv = { Term.vname = "s"; vsort = "student" } in
  let cv = { Term.vname = "c"; vsort = "course" } in
  {
    Stmt.rt_vars = [ sv; cv ];
    rt_body =
      Formula.And
        ( Formula.Pred ("TAKES", [ Term.Var sv; Term.Var cv ]),
          Formula.Not (Formula.Pred ("OFFERED", [ Term.Var cv ])) );
  }

let sample_db =
  db0
  |> Db.with_relation "OFFERED" (Relation.of_list [ "course" ] [ [ v "cs101" ] ])
  |> Db.with_relation "TAKES"
       (Relation.of_list [ "student"; "course" ]
          [ [ v "ana"; v "cs101" ]; [ v "bob"; v "cs102" ] ])

let test_calc_vs_algebra () =
  let naive = Relcalc.eval_rterm_naive ~domain sample_db rterm_src_takes_unoffered in
  (match Relalg.compile rterm_src_takes_unoffered with
   | None -> Alcotest.fail "body should be compilable"
   | Some e ->
     let compiled = Relalg.eval ~domain sample_db e in
     Alcotest.(check bool) "naive = compiled" true (Relation.equal naive compiled));
  Alcotest.(check int) "one violating pair" 1 (Relation.cardinal naive)

let test_compile_quantified () =
  (* existential bodies compile: ∃ is projection over a join *)
  let sv = { Term.vname = "s"; vsort = "student" } in
  let cv = { Term.vname = "c"; vsort = "course" } in
  let rt =
    {
      Stmt.rt_vars = [ cv ];
      rt_body =
        Formula.Exists (sv, Formula.Pred ("TAKES", [ Term.Var sv; Term.Var cv ]));
    }
  in
  (match Relalg.compile rt with
   | None -> Alcotest.fail "existential body should be compilable"
   | Some e ->
     let compiled = Relalg.eval ~domain sample_db e in
     let naive = Relcalc.eval_rterm_naive ~domain sample_db rt in
     Alcotest.(check bool) "naive = compiled" true (Relation.equal naive compiled));
  let r = Relalg.eval_rterm ~strategy:`Compiled ~domain sample_db rt in
  Alcotest.(check int) "two courses taken" 2 (Relation.cardinal r)

(* Plans with a 0-ary input, the emptiness test of a quantified
   subformula whose atom is ground but for the bound variable: an empty
   0-ary input placed first must empty the join, and the optimizer must
   file a predicate of the input after a 0-ary one under that input
   alone, though the two share a column offset. *)
let test_nullary_join_inputs () =
  let sv = { Term.vname = "s"; vsort = "student" } in
  let cv = { Term.vname = "c"; vsort = "course" } in
  let takes a b = Formula.Pred ("TAKES", [ a; b ]) in
  let lit x = Term.Lit (v x) in
  let rel_arity r = List.length (Schema.sorts_of schema r) in
  (* ana takes cs101, carl nothing: the conjunction is false *)
  let wff =
    Formula.And
      ( Formula.Exists (sv, takes (Term.Var sv) (lit "cs101")),
        Formula.Exists (cv, takes (lit "carl") (Term.Var cv)) )
  in
  (match Relalg.compile_wff wff with
   | None -> Alcotest.fail "closed wff should be compilable"
   | Some e ->
     Alcotest.(check bool) "an empty 0-ary input empties the join" true
       (Relation.is_empty (Relalg.eval ~domain sample_db (Relalg.optimize ~rel_arity e))));
  let rt =
    {
      Stmt.rt_vars = [ sv; cv ];
      rt_body =
        Formula.conj
          [
            takes (Term.Var sv) (Term.Var cv);
            Formula.Exists (sv, takes (Term.Var sv) (lit "cs102"));
            takes (lit "ana") (lit "cs101");
          ];
    }
  in
  match Relalg.compile rt with
  | None -> Alcotest.fail "body should be compilable"
  | Some e ->
    Alcotest.(check bool) "optimized = naive" true
      (Relation.equal
         (Relalg.eval ~domain sample_db (Relalg.optimize ~rel_arity e))
         (Relcalc.eval_rterm_naive ~domain sample_db rt))

let test_compile_fallback () =
  (* a head variable ranging only over the carrier (body True) is not
     range-restricted; Auto falls back to naive enumeration *)
  let cv = { Term.vname = "c"; vsort = "course" } in
  let rt = { Stmt.rt_vars = [ cv ]; rt_body = Formula.True } in
  Alcotest.(check bool) "not compilable" true (Relalg.compile rt = None);
  (match Relalg.compile_explain rt with
   | Ok _ -> Alcotest.fail "expected a compile failure"
   | Error _ -> ());
  let r = Relalg.eval_rterm ~strategy:`Auto ~domain sample_db rt in
  Alcotest.(check int) "whole course carrier" 2 (Relation.cardinal r)

let test_singleton_compile () =
  (* insert-desugared body: R(x̄) ∨ x̄ = t̄ *)
  let sorts_of = Schema.sorts_of schema in
  match Stmt.desugar ~sorts_of (Stmt.Insert ("OFFERED", [ Term.Lit (v "cs102") ])) with
  | Stmt.Rel_assign (_, rt) ->
    (match Relalg.compile rt with
     | None -> Alcotest.fail "insert body must compile"
     | Some e ->
       let r = Relalg.eval ~domain sample_db e in
       Alcotest.(check int) "two offered rows" 2 (Relation.cardinal r))
  | _ -> Alcotest.fail "unexpected desugaring"

(* --- the denotational equations of Section 5.1.2 ------------------- *)

let tiny_domain =
  Domain.of_list [ ("course", [ v "cs101" ]); ("student", [ v "ana" ]) ]

let tiny_env = Semantics.env ~domain:tiny_domain schema

let tiny_universe =
  Denote.universe schema ~domain:tiny_domain ~base:(Schema.empty_db schema)

let p_stmt = Stmt.Insert ("OFFERED", [ Term.Lit (v "cs101") ])
let q_stmt = Stmt.Delete ("OFFERED", [ Term.Lit (v "cs101") ])

let test_denote_seq_is_composition () =
  let m_p = Denote.meaning tiny_env tiny_universe p_stmt in
  let m_q = Denote.meaning tiny_env tiny_universe q_stmt in
  let m_pq = Denote.meaning tiny_env tiny_universe (Stmt.Seq (p_stmt, q_stmt)) in
  Alcotest.(check bool) "m(p;q) = m(p) o m(q)" true
    (Denote.equal_relations m_pq (Denote.compose m_p m_q))

let test_denote_union () =
  let m_p = Denote.meaning tiny_env tiny_universe p_stmt in
  let m_q = Denote.meaning tiny_env tiny_universe q_stmt in
  let m_u = Denote.meaning tiny_env tiny_universe (Stmt.Union (p_stmt, q_stmt)) in
  Alcotest.(check bool) "m(p u q) = m(p) ∪ m(q)" true
    (Denote.equal_relations m_u (List.sort_uniq compare (m_p @ m_q)))

let test_denote_star_is_closure () =
  let u = Stmt.Union (p_stmt, q_stmt) in
  let m_u = Denote.meaning tiny_env tiny_universe u in
  let m_star = Denote.meaning tiny_env tiny_universe (Stmt.Star u) in
  Alcotest.(check bool) "m(p*) = closure of m(p)" true
    (Denote.equal_relations m_star
       (Denote.closure ~n:(List.length tiny_universe) m_u))

let test_denote_test () =
  let f = Formula.Pred ("OFFERED", [ Term.Lit (v "cs101") ]) in
  let m_t = Denote.meaning tiny_env tiny_universe (Stmt.Test f) in
  (* test is a partial identity: all pairs are diagonal *)
  Alcotest.(check bool) "partial identity" true (List.for_all (fun (a, b) -> a = b) m_t);
  Alcotest.(check bool) "nonempty" true (m_t <> [])

(* --- determinism, reads/writes ------------------------------------ *)

let test_determinism_analysis () =
  List.iter
    (fun (p : Schema.proc) ->
      Alcotest.(check bool)
        (Fmt.str "%s deterministic" p.Schema.pname)
        true
        (Stmt.is_deterministic p.Schema.body))
    schema.Schema.procs

let test_reads_writes () =
  let proc = Option.get (Schema.find_proc schema "transfer") in
  Alcotest.(check (list string)) "writes TAKES" [ "TAKES"; "TAKES" ]
    (Stmt.writes proc.Schema.body);
  Alcotest.(check bool) "reads OFFERED" true
    (List.mem "OFFERED" (Stmt.reads proc.Schema.body))

(* --- property tests ------------------------------------------------ *)

(* random quantifier-free bodies over TAKES/OFFERED with head (s, c) *)
let random_rterm_gen =
  let open QCheck.Gen in
  let sv = { Term.vname = "s"; vsort = "student" } in
  let cv = { Term.vname = "c"; vsort = "course" } in
  let atom =
    oneofl
      [
        Formula.Pred ("TAKES", [ Term.Var sv; Term.Var cv ]);
        Formula.Pred ("OFFERED", [ Term.Var cv ]);
        Formula.Eq (Term.Var cv, Term.Lit (v "cs101"));
        Formula.Eq (Term.Var sv, Term.Lit (v "ana"));
      ]
  in
  let rec gen n =
    if n <= 0 then atom
    else
      frequency
        [
          (3, atom);
          (1, map (fun f -> Formula.Not f) (gen (n - 1)));
          (2, map2 (fun f g -> Formula.And (f, g)) (gen (n / 2)) (gen (n / 2)));
          (2, map2 (fun f g -> Formula.Or (f, g)) (gen (n / 2)) (gen (n / 2)));
        ]
  in
  map
    (fun body ->
      (* ensure range restriction by conjoining a positive atom *)
      {
        Stmt.rt_vars = [ sv; cv ];
        rt_body =
          Formula.And (Formula.Pred ("TAKES", [ Term.Var sv; Term.Var cv ]), body);
      })
    (gen 6)

let arbitrary_rterm =
  QCheck.make
    ~print:(fun rt -> Fmt.str "%a" Stmt.pp_rterm rt)
    random_rterm_gen

let prop_compiled_matches_naive =
  QCheck.Test.make ~name:"compiled algebra = naive calculus" ~count:200 arbitrary_rterm
    (fun rt ->
      match Relalg.compile rt with
      | None -> QCheck.assume_fail ()
      | Some e ->
        Relation.equal
          (Relalg.eval ~domain sample_db e)
          (Relcalc.eval_rterm_naive ~domain sample_db rt))

let suite =
  [
    Alcotest.test_case "schema well-formed" `Quick test_schema_well_formed;
    Alcotest.test_case "undeclared relation rejected" `Quick test_undeclared_relation_rejected;
    Alcotest.test_case "initiate/offer/enroll" `Quick test_initiate_offer_enroll;
    Alcotest.test_case "cancel guard" `Quick test_cancel_guard;
    Alcotest.test_case "transfer" `Quick test_transfer;
    Alcotest.test_case "insert/delete desugaring" `Quick test_insert_delete_desugar;
    Alcotest.test_case "while desugaring agrees" `Quick test_while_desugar_agree;
    Alcotest.test_case "union nondeterminism" `Quick test_union_nondeterminism;
    Alcotest.test_case "test blocks" `Quick test_test_blocks;
    Alcotest.test_case "star closure" `Quick test_star_closure;
    Alcotest.test_case "calculus vs algebra" `Quick test_calc_vs_algebra;
    Alcotest.test_case "compile quantified" `Quick test_compile_quantified;
    Alcotest.test_case "compile fallback" `Quick test_compile_fallback;
    Alcotest.test_case "nullary join inputs" `Quick test_nullary_join_inputs;
    Alcotest.test_case "singleton compile" `Quick test_singleton_compile;
    Alcotest.test_case "m(p;q) composition" `Quick test_denote_seq_is_composition;
    Alcotest.test_case "m(p u q) union" `Quick test_denote_union;
    Alcotest.test_case "m(p*) closure" `Quick test_denote_star_is_closure;
    Alcotest.test_case "m(P?) partial identity" `Quick test_denote_test;
    Alcotest.test_case "determinism analysis" `Quick test_determinism_analysis;
    Alcotest.test_case "reads and writes" `Quick test_reads_writes;
    QCheck_alcotest.to_alcotest prop_compiled_matches_naive;
  ]

(* --- dynamic logic over RPR programs (the deferred Section 5.3 route) *)

let dyn_env = Semantics.env ~domain schema

let db_offered = run "offer" [ v "cs101" ] db0

let offered_atom c = Dynamic.Atom (Formula.Pred ("OFFERED", [ Term.Lit (v c) ]))

let test_dynamic_box_diamond () =
  let prog = Dynamic.Call ("offer", [ Term.Lit (v "cs101") ]) in
  Alcotest.(check bool) "[offer]OFFERED" true
    (Dynamic.holds dyn_env db0 (Dynamic.Box (prog, offered_atom "cs101")));
  Alcotest.(check bool) "<offer>OFFERED" true
    (Dynamic.holds dyn_env db0 (Dynamic.Diamond (prog, offered_atom "cs101")));
  Alcotest.(check bool) "[offer]OFFERED(cs102) false" false
    (Dynamic.holds dyn_env db0 (Dynamic.Box (prog, offered_atom "cs102")))

let test_dynamic_duality () =
  (* <p>φ ≡ ~[p]~φ over a nondeterministic program *)
  let p =
    Dynamic.Prim
      (Rparser.stmt schema "insert OFFERED(a) u skip" ~params:[ ("a", "course") ]
      |> Result.get_ok)
  in
  let env = Semantics.env ~domain ~consts:[ ("a", v "cs101") ] schema in
  let phi = offered_atom "cs101" in
  List.iter
    (fun db ->
      Alcotest.(check bool) "duality" true
        (Dynamic.holds env db (Dynamic.Diamond (p, phi))
        = Dynamic.holds env db
            (Dynamic.Not (Dynamic.Box (p, Dynamic.Not phi)))))
    [ db0; db_offered ]

let test_dynamic_test_law () =
  (* [P?]φ ≡ P -> φ *)
  let cond = Formula.Pred ("OFFERED", [ Term.Lit (v "cs101") ]) in
  let p = Dynamic.Prim (Stmt.Test cond) in
  let phi = offered_atom "cs102" in
  List.iter
    (fun db ->
      Alcotest.(check bool) "test law" true
        (Dynamic.holds dyn_env db (Dynamic.Box (p, phi))
        = Dynamic.holds dyn_env db
            (Dynamic.Imp (Dynamic.Atom cond, phi))))
    [ db0; db_offered ]

let test_dynamic_seq_composition () =
  (* [p;q]φ ≡ [p][q]φ *)
  let p = Dynamic.Call ("offer", [ Term.Lit (v "cs101") ]) in
  let q = Dynamic.Call ("enroll", [ Term.Lit (v "ana"); Term.Lit (v "cs101") ]) in
  let phi = Dynamic.Atom (Formula.Pred ("TAKES", [ Term.Lit (v "ana"); Term.Lit (v "cs101") ])) in
  Alcotest.(check bool) "seq law" true
    (Dynamic.holds dyn_env db0 (Dynamic.Box (Dynamic.Pseq (p, q), phi))
    = Dynamic.holds dyn_env db0 (Dynamic.Box (p, Dynamic.Box (q, phi))))

let test_dynamic_quantifier () =
  (* forall c. [offer(c)] OFFERED(c) *)
  let cvar = { Term.vname = "c"; vsort = "course" } in
  let f =
    Dynamic.Forall
      ( cvar,
        Dynamic.Box
          ( Dynamic.Call ("offer", [ Term.Var cvar ]),
            Dynamic.Atom (Formula.Pred ("OFFERED", [ Term.Var cvar ])) ) )
  in
  Alcotest.(check bool) "forall-box" true (Dynamic.holds dyn_env db0 f)

let suite =
  suite
  @ [
      Alcotest.test_case "dynamic box/diamond" `Quick test_dynamic_box_diamond;
      Alcotest.test_case "dynamic duality" `Quick test_dynamic_duality;
      Alcotest.test_case "dynamic test law" `Quick test_dynamic_test_law;
      Alcotest.test_case "dynamic seq composition" `Quick test_dynamic_seq_composition;
      Alcotest.test_case "dynamic quantifier" `Quick test_dynamic_quantifier;
    ]

(* --- schema-level diagnostics ---------------------------------------- *)

let test_schema_check_diagnostics () =
  (* arity mismatch on insert *)
  (match Rparser.schema
           {|
schema bad
relation R(course, student)
proc p(c: course) = insert R(c)
end
|}
   with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "arity mismatch accepted");
  (* relational term with wrong column sorts *)
  (match Rparser.schema
           {|
schema bad
relation R(course)
proc p() = R := {(s:student) | false}
end
|}
   with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "column sort mismatch accepted");
  (* duplicate procedure *)
  (match Rparser.schema
           {|
schema bad
relation R(course)
proc p(c: course) = insert R(c)
proc p(c: course) = delete R(c)
end
|}
   with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "duplicate procedure accepted")

let test_scalar_assignment () =
  let s =
    Rparser.stmt schema "x := c" ~params:[ ("c", "course") ] |> Result.get_ok
  in
  let env = Semantics.env ~domain ~consts:[ ("c", v "cs101") ] schema in
  match Semantics.exec env s db0 with
  | [ (db', _) ] ->
    Alcotest.(check bool) "scalar bound" true
      (Db.scalar db' "x" = Some (v "cs101"))
  | _ -> Alcotest.fail "expected one outcome"

let test_call_restores_params () =
  (* a procedure call must not leak its formal parameters as scalars *)
  let db1 = run "offer" [ v "cs101" ] db0 in
  Alcotest.(check (option string)) "no leaked scalar" None
    (Option.map Value.to_string (Db.scalar db1 "c"))

let suite =
  suite
  @ [
      Alcotest.test_case "schema diagnostics" `Quick test_schema_check_diagnostics;
      Alcotest.test_case "scalar assignment" `Quick test_scalar_assignment;
      Alcotest.test_case "call restores parameters" `Quick test_call_restores_params;
    ]
