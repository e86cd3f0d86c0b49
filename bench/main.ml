(* Benchmark entry point.

   Default mode runs the paper-reproduction experiment harness: one
   section per table/figure of the evaluation (Table 1, Figures 4-10),
   printing the same series the paper reports.

     dune exec bench/main.exe                    # every experiment
     dune exec bench/main.exe -- table1 fig5     # a subset
     dune exec bench/main.exe -- --micro         # micro + macro benchmarks
     dune exec bench/main.exe -- --micro --jobs 4

   The micro suite measures the primitives with Bechamel (what-if
   optimization, INUM cache construction and cost evaluation, simplex
   solves, decomposition iterations) and then times the macro INUM
   workload-cache build on a 100-statement workload at the requested
   --jobs, printing the total what-if call count and the final
   recommendation so job counts can be checked for identical results.

   End-to-end advise timings and recommendation quality live in
   perfbench/ (see perfbench/README.md). *)

let bench_n = 100
let bench_seed = 7
let bench_budget_fraction = 0.5

(* Per-query INUM probe budget of the macro run: the CLI default. *)
let probe_budget = Some 16

(* Sorted index list of a configuration — a stable identity for
   cross-job-count comparisons. *)
let config_indexes config =
  let acc = ref [] in
  Storage.Config.iter (fun ix -> acc := Storage.Index.to_string ix :: !acc) config;
  List.sort compare !acc

(* Macro benchmark backing the acceptance criterion: INUM workload-cache
   construction on a 100-statement workload, then a full advise, with
   everything needed to compare job counts printed. *)
let macro_suite ~jobs =
  let schema = Catalog.Tpch.schema () in
  let w = Workload.Gen.hom schema ~n:bench_n ~seed:bench_seed in
  let env = Optimizer.Whatif.make_env schema in
  let t0 = Runtime.Clock.now () in
  let cache = Inum.build_workload ~jobs ?probe_budget env w in
  let dt = Runtime.Clock.now () -. t0 in
  Fmt.pr
    "inum_build n=%d jobs=%d: %.3fs (total_init_calls=%d pending=%d \
     regret=%.3f truncated=%d)@."
    bench_n jobs dt
    (Inum.total_init_calls cache)
    (Inum.cache_pending cache) (Inum.cache_regret cache)
    (Inum.cache_truncated cache);
  let r =
    Cophy.Advisor.advise ~jobs ?probe_budget schema w
      ~budget_fraction:bench_budget_fraction
  in
  Fmt.pr "recommendation jobs=%d: objective=%.6f indexes=[%s]@." jobs
    r.Cophy.Advisor.report.Cophy.Solver.objective
    (String.concat "; " (config_indexes r.Cophy.Advisor.config));
  Fmt.pr "%a@." Runtime.Stats.pp r.Cophy.Advisor.timings.Cophy.Advisor.stats

let micro_suite () =
  let open Bechamel in
  let schema = Catalog.Tpch.schema () in
  let w = Workload.Gen.hom schema ~n:15 ~seed:7 in
  let env = Optimizer.Whatif.make_env schema in
  let q =
    match (List.hd w).Sqlast.Ast.stmt with
    | Sqlast.Ast.Select q -> q
    | Sqlast.Ast.Update u -> Sqlast.Ast.query_shell u
  in
  let cands = Cophy.Cgen.generate w in
  let config = Storage.Config.of_list cands in
  let inum_cache = Inum.build env q in
  let wl_cache = Inum.build_workload env w in
  let sp = Cophy.Sproblem.build env wl_cache (Array.of_list cands) in
  let budget = Catalog.Tpch.database_size schema in
  let lp =
    (* a small dense LP representative of the z subproblem *)
    let p = Lp.Problem.create () in
    let vars =
      List.map
        (fun ix ->
          Lp.Problem.add_var ~ub:1.0
            ~obj:(-.(Storage.Index.size_bytes schema ix) /. 1e9)
            p)
        cands
    in
    ignore
      (Lp.Problem.add_row p
         (List.map (fun v -> (v, 1.0)) vars)
         Lp.Problem.Le 10.0);
    p
  in
  let tests =
    [
      Test.make ~name:"whatif_optimize"
        (Staged.stage (fun () -> ignore (Optimizer.Whatif.cost env q config)));
      Test.make ~name:"inum_build"
        (Staged.stage (fun () -> ignore (Inum.build env q)));
      Test.make ~name:"inum_cost_eval"
        (Staged.stage (fun () -> ignore (Inum.cost inum_cache config)));
      Test.make ~name:"sproblem_eval"
        (Staged.stage
           (fun () ->
             ignore
               (Cophy.Sproblem.eval sp
                  (Array.make (Cophy.Sproblem.num_candidates sp) true))));
      Test.make ~name:"simplex_small"
        (Staged.stage (fun () -> ignore (Lp.Simplex.solve lp)));
      Test.make ~name:"decomposition_5iters"
        (Staged.stage
           (fun () ->
             let options =
               { Cophy.Decomposition.default_options with
                 Cophy.Decomposition.max_iters = 5 }
             in
             ignore (Cophy.Decomposition.solve ~options sp ~budget ~z_rows:[])));
    ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let stats = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      List.iter
        (fun (name, result) ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] -> Fmt.pr "%-28s %14.1f ns/run@." name est
          | _ -> Fmt.pr "%-28s (no estimate)@." name)
        (Runtime.Tbl.sorted_bindings stats))
    tests

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* --jobs N takes a value; strip it before the experiment-name
     filter. *)
  let jobs = ref 1 in
  let rest = ref [] in
  let rec parse = function
    | [] -> ()
    | "--jobs" :: v :: tl -> (
        match int_of_string_opt v with
        | Some n ->
            jobs := n;
            parse tl
        | None ->
            Fmt.epr "--jobs expects an integer, got %S@." v;
            exit 2)
    | [ "--jobs" ] ->
        Fmt.epr "--jobs expects a value@.";
        exit 2
    | a :: tl ->
        rest := a :: !rest;
        parse tl
  in
  parse args;
  let args = List.rev !rest in
  let jobs = if !jobs <= 0 then Runtime.recommended_jobs () else !jobs in
  if List.mem "--micro" args then begin
    micro_suite ();
    macro_suite ~jobs
  end
  else begin
    let selected =
      List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args
    in
    let to_run =
      if selected = [] then Experiments.all
      else
        List.filter (fun (name, _) -> List.mem name selected) Experiments.all
    in
    if to_run = [] then begin
      Fmt.epr "unknown experiment; available: %a@."
        (Fmt.list ~sep:Fmt.sp Fmt.string)
        (List.map fst Experiments.all);
      exit 1
    end;
    let t0 = Runtime.Clock.now () in
    List.iter (fun (_, f) -> f ()) to_run;
    Fmt.pr "@.Total experiment time: %.1fs@." (Runtime.Clock.now () -. t0)
  end
