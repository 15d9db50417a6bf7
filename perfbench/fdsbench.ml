(* The fds serve benchmark. See README.md next to this file.

     fdsbench --workload W --seed N --seconds S --trace 0|1 --fds FDS
     fdsbench --smoke --fds FDS --spec BENCHMARK.json

   prints its metrics one per line and, as the last line, one JSON
   object {"correct", "attempted", "failed", "metrics"}. *)

open Fdbs_kernel
open Stats

let m name unit_ value = { name; value; unit_ }

let json_of_metrics ~correct ~attempted ~failed (ms : metric list) =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun x ->
                  ( x.name,
                    Json.Obj [ ("value", Json.Num x.value); ("unit", Json.Str x.unit_) ] ))
                ms) );
       ])

(* Smoke mode reports only its verdict. *)
let verbose = ref true

let print_metric x = if !verbose then Fmt.pr "%-48s %16.3f %s@." x.name x.value x.unit_

(* The end-to-end metrics every workload reports, and the per-class
   figures printed beside them where the workload has the class. *)
let e2e_metrics (o : E2e.outcome) : metric list * metric list =
  let q s p = Stats.quantile s p in
  let main =
    [
      m "setup_s" "s" (Stats.median_of o.E2e.setups);
      m "server_cpu_us_per_op" "us" o.E2e.cpu_us_per_op;
      m "peak_rss_mb" "MB" o.E2e.rss_mb;
    ]
  in
  let split name s =
    if Stats.count s = 0 then []
    else
      [
        m (name ^ "_p50_us") "us" (q s 0.5);
        m (name ^ "_p99_us") "us" (q s 0.99);
        m (name ^ "_samples") "count" (float_of_int (Stats.count s));
      ]
  in
  let extra =
    split "read" o.E2e.reads @ split "commit" o.E2e.commits
    @ split "event" o.E2e.events
    @ [
        m "ops_per_s" "1/s" o.E2e.ops_per_s;
        m "p50_us" "us" (q o.E2e.all 0.5);
        m "p90_us" "us" (q o.E2e.all 0.9);
        m "p99_us" "us" (q o.E2e.all 0.99);
        m "samples" "count" (float_of_int (Stats.count o.E2e.all));
        m "steal_frac" "ratio" o.E2e.steal;
        m "slices_counted" "count" (float_of_int o.E2e.slices_counted);
        m "failed_frac" "ratio"
          (float_of_int o.E2e.failed /. float_of_int (max 1 o.E2e.attempted));
        m "server.refused" "count" (float_of_int (E2e.refused o.E2e.stats));
      ]
  in
  (main, extra)

let root = ".bench_run"

let e2e ~fds ~seed ~seconds ~warmup ?setups ?n kind =
  let p = Gen.params ?n kind in
  E2e.run ~fds ~root ~seed ~seconds ~warmup ?setups p

let report_e2e kind (o : E2e.outcome) =
  let main, extra = e2e_metrics o in
  if !verbose then
    Fmt.pr "# %s: %d ops attempted, %d failed@." (Gen.name kind) o.E2e.attempted
      o.E2e.failed;
  List.iter (fun e -> Fmt.epr "fdsbench: %s: %s@." (Gen.name kind) e) o.E2e.errors;
  List.iter print_metric (main @ extra);
  main

(* --- the traced run --- *)

(* Replayed requests per workload, and the size the sweep repeats
   commit_large at. *)
type sizes = { n_of : Gen.kind -> int option; count_of : Gen.kind -> int; n_sweep : int }

let full =
  {
    n_of = (fun _ -> None);
    count_of = (function Gen.Read_pipeline -> 2000 | Gen.Commit_large -> 160 | Gen.Monitor_mix -> 600);
    n_sweep = 2000;
  }

let small =
  {
    n_of = (function Gen.Commit_large -> Some 400 | _ -> Some 200);
    count_of = (fun _ -> 48);
    n_sweep = 200;
  }

let traced ~fds ~seed ~seconds sizes : int * int * metric list =
  let attempted = ref 0 and failed = ref 0 in
  let per_workload =
    List.map
      (fun kind ->
        let p = Gen.params ?n:(sizes.n_of kind) kind in
        let r = Replay.replay ~root ~seed ~tag:(Gen.name kind) ~count:(sizes.count_of kind) p in
        let o = E2e.run ~fds ~root ~seed ~seconds ~warmup:0.5 ~setups:1 p in
        List.iter (fun e -> Fmt.epr "fdsbench: %s: %s@." (Gen.name kind) e) o.E2e.errors;
        attempted := !attempted + r.Replay.requests + o.E2e.attempted;
        failed := !failed + o.E2e.failed;
        (kind, r, o))
      Gen.kinds
  in
  let sweep_tag = "commit_large.n2k" in
  let sweep =
    Replay.replay ~root ~seed ~tag:sweep_tag ~count:(sizes.count_of Gen.Commit_large)
      (Gen.params ~n:sizes.n_sweep Gen.Commit_large)
  in
  attempted := !attempted + sweep.Replay.requests;
  let file = Filename.concat root (Fmt.str "trace-%d.json" seed) in
  ignore (Trace.write_chrome file);
  let tbl = Replay.read_spans file in
  let prefixed kind = List.map (fun x -> { x with name = Gen.name kind ^ "." ^ x.name }) in
  let main =
    List.concat_map
      (fun (kind, r, o) -> prefixed kind (Replay.metrics tbl r ~e2e:(Some o)))
      per_workload
  in
  let at_8k = List.assoc Gen.Commit_large (List.map (fun (k, r, _) -> (k, r)) per_workload) in
  let big = Replay.metrics tbl at_8k ~e2e:None in
  let sweep_ms =
    List.filter_map
      (fun x ->
        if List.mem x.name Replay.sweep_metrics then begin
          (match List.find_opt (fun y -> y.name = x.name) big with
          | Some y when !verbose ->
            Fmt.pr "# commit_large %s: %.1f at n=%d / %.1f at n=%d = %.2fx (base n=%d)@."
              x.name y.value at_8k.Replay.r_p.Gen.n x.value sizes.n_sweep
              (y.value /. x.value) sizes.n_sweep
          | _ -> ());
          Some { x with name = "commit_large." ^ x.name ^ ".n2k" }
        end
        else None)
      (Replay.metrics tbl sweep ~e2e:None)
  in
  (!attempted, !failed, main @ sweep_ms)

(* --- smoke mode --- *)

let names_of spec key =
  List.filter_map
    (fun x -> Option.bind (Json.field "name" x) Json.to_string_opt)
    (Option.value ~default:[] (Option.bind (Json.field key spec) Json.to_list_opt))

(* A short run of every workload and of the traced replay, checking that
   each emits exactly the metrics BENCHMARK.json names and that every
   correctness check passes. *)
let smoke ~fds ~spec_file =
  verbose := false;
  let spec = Json.parse_file spec_file in
  let problems = ref [] in
  let problem fmt = Fmt.kstr (fun m -> problems := m :: !problems) fmt in
  let same what expected (got : metric list) =
    let got_names = List.map (fun x -> x.name) got in
    List.iter (fun n -> if not (List.mem n got_names) then problem "%s: %s not emitted" what n) expected;
    List.iter (fun n -> if not (List.mem n expected) then problem "%s: %s not in the spec" what n) got_names;
    List.iter (fun x -> if not (Float.is_finite x.value) then problem "%s: %s is not finite" what x.name) got
  in
  let workloads = names_of spec "workloads" in
  if List.sort compare workloads <> List.sort compare (List.map Gen.name Gen.kinds) then
    problem "spec workloads %s differ from the benchmark's" (String.concat ", " workloads);
  List.iter
    (fun kind ->
      let o = e2e ~fds ~seed:7 ~seconds:1.0 ~warmup:0.2 ~setups:2 ?n:(small.n_of kind) kind in
      let main = report_e2e kind o in
      if o.E2e.failed > 0 then problem "%s: %d failed" (Gen.name kind) o.E2e.failed;
      List.iter (fun x -> if not (x.value > 0.) then problem "%s: %s is not positive" (Gen.name kind) x.name) main;
      same (Gen.name kind) (names_of spec "end_to_end") main)
    Gen.kinds;
  let _, failed, layers = traced ~fds ~seed:7 ~seconds:0.5 small in
  if failed > 0 then problem "traced run: %d failed" failed;
  same "traced run" (names_of spec "per_layer") layers;
  match !problems with
  | [] -> Fmt.pr "smoke: ok (%d end-to-end, %d per-layer metrics)@." (List.length (names_of spec "end_to_end")) (List.length layers)
  | ps ->
    List.iter (Fmt.epr "smoke: %s@.") (List.rev ps);
    exit 1

let usage () =
  prerr_endline
    "usage: fdsbench --workload W --seed N --seconds S --trace 0|1 --fds FDS\n\
    \       fdsbench --smoke --fds FDS --spec BENCHMARK.json";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and fds = ref "" and smoke_mode = ref false and spec = ref "" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "workload name");
      ("--seed", Arg.Set_int seed, "generation seed");
      ("--seconds", Arg.Set_float seconds, "timed window per run");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--fds", Arg.Set_string fds, "the fds binary to serve with");
      ("--smoke", Arg.Set smoke_mode, "short self-check of every workload");
      ("--spec", Arg.Set_string spec, "BENCHMARK.json, for --smoke");
    ]
  in
  Arg.parse specs (fun _ -> usage ()) "fdsbench";
  if !fds = "" || (not (Sys.file_exists !fds)) || not (List.mem !trace [ 0; 1 ]) then usage ();
  at_exit E2e.kill_all;
  (* a run ends within 180 s, children included *)
  let stop = Sys.Signal_handle (fun _ -> E2e.kill_all (); exit 3) in
  List.iter (fun s -> Sys.set_signal s stop) [ Sys.sigalrm; Sys.sigterm; Sys.sigint ];
  ignore (Unix.alarm 175);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if !smoke_mode then smoke ~fds:!fds ~spec_file:!spec
  else
    match Gen.of_name !workload with
    | None -> usage ()
    | Some kind -> (
      let finish ~attempted ~failed ms =
        print_endline (json_of_metrics ~correct:(failed = 0) ~attempted ~failed ms);
        if failed > 0 then exit 1
      in
      match
        if !trace = 1 then begin
          let attempted, failed, layers =
            traced ~fds:!fds ~seed:!seed ~seconds:(Float.min !seconds 2.) full
          in
          List.iter print_metric layers;
          (attempted, failed, layers)
        end
        else
          let o = e2e ~fds:!fds ~seed:!seed ~seconds:!seconds ~warmup:1.0 kind in
          (o.E2e.attempted, o.E2e.failed, report_e2e kind o)
      with
      | attempted, failed, ms -> finish ~attempted ~failed ms
      | exception (E2e.Failed msg | Replay.Mismatch msg) ->
        Fmt.epr "fdsbench: %s: %s@." !workload msg;
        E2e.kill_all ();
        finish ~attempted:1 ~failed:1 [])
