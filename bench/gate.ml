(* The CI performance gate: compare a fresh `main.exe --json` report
   against the committed baseline and fail on regressions.

   Usage: gate --baseline FILE --current FILE

   Every metric is normalized by its report's [calibration_ns] — the
   cost of a fixed pure-OCaml loop measured on the same machine in the
   same run — so the comparison is a ratio of ratios and survives
   running the baseline and the candidate on different hardware. A
   metric regresses when

     (cur_ns / cur_calibration) > (base_ns / base_calibration) * (1 + threshold)

   with a fixed threshold of 25%. Derived figures are checked against
   the constant bounds in [bounds] below; a bounded figure missing from
   the current report fails, and the others are reported as info.

   Exit status: 0 when every check passes, 1 on any failed check, 2 on
   usage errors or a report that is unreadable or lacks its
   [calibration_ns] or [metrics]. *)

module Json = Fdbs_kernel.Json

let threshold = 0.25

type direction = Min | Max

(* (name, direction, bound, why, needs >= 4 cores). Ratios of two
   timings from one run and exact allocation counts are machine-free,
   so they are always gated. [gateway_rps] is absolute: its floor sits
   far below any real machine and catches a hung or serialized gateway.
   The Check23 speedups need physical parallelism, so below 4 cores
   (the current report's [cores]) they print a skip line instead. *)
let bounds =
  [
    ("trace_disabled_overhead", Max, 0.02, "tracing off per statement", false);
    ("session_warm_speedup", Min, 5., "warm session vs setup", false);
    ("constraint_delta_speedup", Min, 5., "delta vs scratch checks", false);
    ("gateway_rps", Min, 200., "gateway requests/s floor", false);
    ("monitor_commit_overhead", Max, 3., "monitored vs bare commit", false);
    ("commit_alloc_ratio", Max, 1.5, "commit words, 8k / 2k", false);
    ("active_domain_alloc_ratio", Max, 6., "domain words, 8k / 2k", false);
    ("reply_alloc_ratio", Max, 1.5, "reply render words, 8k / 2k", false);
    ("selfjoin_alloc_ratio", Max, 1.5, "key-checked commit words, 8k / 2k", false);
    ("monitor_alloc_ratio", Max, 1.5, "monitored commit words, 8k / 2k", false);
    ("read_alloc_ratio", Max, 1.5, "point + exists query words, 8k / 2k", false);
    ("check23_speedup_jobs4", Min, 1.5, "Check23 at 4 domains", true);
    ("check23_speedup_jobs2", Min, 1.0, "2 domains must not regress", true);
  ]

(* The numeric members of a report's object [key], if it has one. *)
let nums key report =
  match Json.field key report with
  | Some (Json.Obj kvs) ->
    Some
      (List.filter_map
         (function k, Json.Num f -> Some (k, f) | _ -> None)
         kvs)
  | _ -> None

(* A report's calibration and metrics, or [Parse_error] naming what is
   missing. *)
let read_report path =
  let report = Json.parse_file path in
  let missing what =
    raise (Json.Parse_error (Printf.sprintf "%s: no %s" path what))
  in
  let cal =
    match Json.field "calibration_ns" report with
    | Some (Json.Num f) -> f
    | _ -> missing "numeric calibration_ns"
  in
  match nums "metrics" report with
  | Some metrics -> (report, cal, metrics)
  | None -> missing "metrics object"

let () =
  let baseline = ref "" in
  let current = ref "" in
  let usage = "gate --baseline FILE --current FILE" in
  Arg.parse
    [
      ("--baseline", Arg.Set_string baseline, "FILE committed baseline report");
      ("--current", Arg.Set_string current, "FILE freshly measured report");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !baseline = "" || !current = "" then begin
    prerr_endline usage;
    exit 2
  end;
  match (read_report !baseline, read_report !current) with
  | exception (Json.Parse_error e | Sys_error e) ->
    Printf.eprintf "gate: %s\n" e;
    exit 2
  | (_, base_cal, base_metrics), (cur, cur_cal, cur_metrics) ->
    let failures = ref 0 in
    (* the line's verdict label, counting a failure *)
    let verdict ok =
      if not ok then incr failures;
      if ok then "ok  " else "FAIL"
    in
    let missing name =
      Printf.printf "  %s %-25s missing from the current report\n"
        (verdict false) name
    in
    Printf.printf "perf gate: threshold %+.0f%%, calibration %.0f -> %.0f ns\n"
      (100. *. threshold) base_cal cur_cal;
    List.iter
      (fun (name, base_ns) ->
        match List.assoc_opt name cur_metrics with
        | None -> missing name
        | Some cur_ns ->
          let change = (cur_ns /. cur_cal /. (base_ns /. base_cal)) -. 1. in
          Printf.printf
            "  %s %-25s %10.0f ns -> %10.0f ns  normalized %+6.1f%%\n"
            (verdict (change <= threshold))
            name base_ns cur_ns (100. *. change))
      base_metrics;
    let cores =
      match Json.field "cores" cur with
      | Some (Json.Num f) -> int_of_float f
      | _ -> 1
    in
    let derived = Option.value ~default:[] (nums "derived" cur) in
    List.iter
      (fun (name, dir, bound, why, multicore) ->
        match List.assoc_opt name derived with
        | None -> missing name
        | Some f when multicore && cores < 4 ->
          Printf.printf
            "  skip %-25s %.2fx (gate skipped: runner has %d core(s), needs >= 4)\n"
            name f cores
        | Some f ->
          let ok, rel =
            match dir with
            | Min -> (f >= bound, "min")
            | Max -> (f <= bound, "max")
          in
          Printf.printf "  %s %-25s %g (%s %g: %s)\n" (verdict ok) name f rel
            bound why)
      bounds;
    List.iter
      (fun (name, f) ->
        if not (List.exists (fun (n, _, _, _, _) -> n = name) bounds) then
          Printf.printf "  info %-25s %.2fx (not gated)\n" name f)
      derived;
    if !failures > 0 then begin
      Printf.printf
        "perf gate FAILED: %d check(s) failed\n\
         (apply the bench-override label to the PR to ship a known regression\n\
         and refresh bench/baseline.json in the same change)\n"
        !failures;
      exit 1
    end
    else print_endline "perf gate passed"
