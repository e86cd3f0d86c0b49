(* CoPhy end-to-end benchmark.

     main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]

   Workloads (one caller, closed loop, jobs = 1):
   - hom-batch   Advisor.advise on Gen.hom n=1000, probe budget 16
   - het-batch   Advisor.advise on Gen.het n=100, unlimited probes
   - serve-drift Serve.Engine.handle_line over a Replay.drift stream

   The untraced run ([--trace 0]) reports the end-to-end metrics.  The
   traced run ([--trace 1]) first repeats the untraced measurement on half
   its time, then drives the same layers one public call at a time under
   spans recorded here, and reports per-layer metrics plus the tracing
   overhead against that untraced half.  Ground-truth re-costing runs
   outside every end-to-end timing.  Human-readable lines go first; the
   last line of stdout is one JSON object.  The exit status is 0 only when
   every correctness check passed. *)

let now = Runtime.Clock.now

(* ---------- order statistics ---------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Harrell-Davis estimate of the [q] quantile: the order statistics
   weighted by a Beta(q (n+1), (1-q) (n+1)) density over their rank
   intervals.  Steadier than one order statistic where the distribution
   is steep, as recommend latencies are around p90. *)
let hd_quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let alpha = q *. float (n + 1) and beta = (1.0 -. q) *. float (n + 1) in
    let log_density x = ((alpha -. 1.0) *. log x) +. ((beta -. 1.0) *. log (1.0 -. x)) in
    let steps = 64 in
    let h = 1.0 /. float (n * steps) in
    let mid k = (float k +. 0.5) *. h in
    let peak = ref neg_infinity in
    for k = 0 to (n * steps) - 1 do
      peak := Float.max !peak (log_density (mid k))
    done;
    let num = ref 0.0 and den = ref 0.0 in
    for k = 0 to (n * steps) - 1 do
      let w = exp (log_density (mid k) -. !peak) in
      num := !num +. (w *. a.(k / steps));
      den := !den +. w
    done;
    !num /. !den
  end

let sum = List.fold_left ( +. ) 0.0
let ratio num den = if den = 0.0 then 0.0 else num /. den

(* ---------- metrics and checks ---------- *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metrics : metric list ref = ref []

let report ?(note = "") name unit_ value =
  metrics := { name; value; unit_; note } :: !metrics

let count ?note name n = report ?note name "count" (float n)

let attempted = ref 0
let failed = ref 0

let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.printf "CHECK FAILED: %s\n%!" what
  end

let samples_line what unit_ xs =
  Printf.printf "# %s samples (%s): %s\n" what unit_
    (String.concat " " (List.map (Printf.sprintf "%.4f") xs))

(* ---------- spans (traced run only) ---------- *)

(* A trace is one root span and its descendants: one advise spine, or
   one protocol line. *)
type span = {
  sname : string;
  parent : int;  (** index into the span log, -1 for a root *)
  t0 : float;
  mutable t1 : float;
}

let tracing = ref false
let log : span list ref = ref []  (* newest first *)
let log_len = ref 0
let open_spans : int list ref = ref []
let traces = ref 0

let span name f =
  if not !tracing then f ()
  else begin
    let id = !log_len in
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    if parent < 0 then incr traces;
    let s = { sname = name; parent; t0 = now (); t1 = nan } in
    log := s :: !log;
    incr log_len;
    open_spans := id :: !open_spans;
    Fun.protect f ~finally:(fun () ->
        s.t1 <- now ();
        open_spans := List.tl !open_spans)
  end

let duration s = s.t1 -. s.t0

(* A layer is the span name's prefix up to the first dot. *)
let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Per span name: (count, total, self), where self is the duration minus
   the part covered by direct children (one caller: children never
   overlap). *)
let span_table () =
  let spans = Array.of_list (List.rev !log) in
  let covered = Array.make (Array.length spans) 0.0 in
  Array.iter
    (fun s -> if s.parent >= 0 then covered.(s.parent) <- covered.(s.parent) +. duration s)
    spans;
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let n, tot, self = Option.value (Hashtbl.find_opt tbl s.sname) ~default:(0, 0., 0.) in
      Hashtbl.replace tbl s.sname (n + 1, tot +. duration s, self +. duration s -. covered.(i)))
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let span_total name =
  List.fold_left (fun acc s -> if s.sname = name then acc +. duration s else acc) 0.0 !log

let span_count name = List.length (List.filter (fun s -> s.sname = name) !log)

let layers = [ "advisor"; "cgen"; "inum"; "sproblem"; "solver"; "serve" ]

(* Print the span table; report each layer's self time divided by [per]
   (the number of spines or replays traced).  [moved] lists (layer,
   seconds) of work done inside serve spans but timed another way: moved
   from serve's self time to that layer's. *)
let report_spans ?(moved = []) ~per () =
  let table = span_table () in
  Printf.printf "# spans: %d recorded in %d traces\n" !log_len !traces;
  Printf.printf "#   %-22s %7s %11s %11s\n" "span" "count" "total_s" "self_s";
  List.iter
    (fun (name, (n, tot, self)) -> Printf.printf "#   %-22s %7d %11.6f %11.6f\n" name n tot self)
    table;
  List.iter
    (fun l ->
      let self =
        List.fold_left
          (fun acc (name, (_, _, self)) -> if layer_of name = l then acc +. self else acc)
          0.0 table
      in
      let self =
        if l = "serve" then self -. sum (List.map snd moved)
        else self +. Option.value (List.assoc_opt l moved) ~default:0.0
      in
      report ("self." ^ l ^ "_s") "s" (self /. per) ~note:"layer self time from the spans")
    layers

(* Run [f] with the program's own trace on, then read its counters:
   [f ()], a counter lookup, and a lookup of summed program span time.
   The simplex counters count every LP the solver runs; an
   [Lp.Backend] stats sink sees only the LPs that go through
   [Solver.options.backend], which the decomposition mostly bypasses. *)
let with_program_trace f =
  Runtime.Trace.reset ();
  Runtime.Trace.enable ();
  tracing := true;
  let x = Fun.protect f ~finally:(fun () ->
      tracing := false;
      Runtime.Trace.disable ())
  in
  let counters = Runtime.Trace.counters () and spans = Runtime.Trace.spans () in
  let counter n = Option.value (List.assoc_opt n counters) ~default:0 in
  let program_span name =
    List.fold_left
      (fun acc (s : Runtime.Trace.span) -> if s.Runtime.Trace.sname = name then acc +. s.dur else acc)
      0.0 spans
  in
  (x, counter, program_span)

let report_lp counter ~per =
  List.iter
    (fun n -> report ("lp." ^ n) "count" (float (counter ("simplex." ^ n)) /. per))
    [ "pivots"; "dual_iterations"; "warm_resolves"; "refactorizations" ]

(* ---------- shared helpers ---------- *)

(* Major-heap high-water mark after set-up and the first measured call;
   later calls would make it depend on how many fit in the run. *)
let peak_heap_words = ref 0

(* Repeat [f] until one more call of the median length so far would end
   past [seconds]; at least [min_calls] calls.  Each call starts from a
   compacted heap (untimed), so one call's garbage does not slow the
   next. *)
let timed_loop ~seconds ~min_calls f =
  let start = now () in
  let rec go acc =
    Gc.compact ();
    let t0 = now () in
    let x = f () in
    let acc = (now () -. t0, x) :: acc in
    if !peak_heap_words = 0 then peak_heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
    if List.length acc >= min_calls && now () -. start +. median (List.map fst acc) > seconds
    then List.rev acc
    else go acc
  in
  go []

let setup_repeats = 5

(* Set-up is timed [setup_repeats] times before the timed loop and as
   many after it: the host's speed drifts over tens of seconds, and a
   median over both ends of the run is steadier than one over a burst. *)
let setup_times = ref []

(* Run [f] [setup_repeats] times, timing each; the last result. *)
let time_setup f =
  let last = ref None in
  for _ = 1 to setup_repeats do
    Gc.compact ();
    let t0 = now () in
    let x = f () in
    setup_times := (now () -. t0) :: !setup_times;
    last := Some x
  done;
  Option.get !last

(* After the timed loop: time [f] again and report [setup_s]. *)
let report_setup f =
  ignore (time_setup f);
  report "setup_s" "s" (median !setup_times)
    ~note:
      (Printf.sprintf "median of %d set-ups, %d before the timed loop and %d after"
         (List.length !setup_times) setup_repeats setup_repeats)

let report_heap () =
  report "peak_heap_mb" "MB"
    (float !peak_heap_words *. float (Sys.word_size / 8) /. 1048576.0)
    ~note:"OCaml major heap high-water mark after set-up and the first call"

(* Ground truth (paper 5.1): re-cost the recommendation with the real
   what-if optimizer in a fresh environment, against no indexes. *)
let report_quality schema w config ~estimate ~gap =
  let t0 = now () in
  let env = Optimizer.Whatif.make_env schema in
  let truth = Optimizer.Whatif.workload_cost env w config in
  let base = Optimizer.Whatif.workload_cost env w Storage.Config.empty in
  report "optimizer.verify_s" "s" (now () -. t0) ~note:"ground-truth re-costing, outside all timings";
  report "cost_ratio" "ratio" (ratio truth base)
    ~note:(Printf.sprintf "ground truth %.6g / no-index %.6g" truth base);
  report "gap" "ratio" gap ~note:"certified solver gap of the final recommendation";
  report "inum.error_rel" "ratio"
    (ratio (Float.abs (estimate -. truth)) truth)
    ~note:(Printf.sprintf "|INUM %.6g - truth %.6g| / truth" estimate truth)

let report_overhead ~traced ~untraced ~what =
  report "trace.overhead_s" "s" (traced -. untraced)
    ~note:(Printf.sprintf "traced %.6f s - untraced %s %.6f s" traced what untraced);
  report "trace.overhead_ratio" "ratio" (ratio (traced -. untraced) untraced)
    ~note:(Printf.sprintf "overhead / untraced %s %.6f s" what untraced)

let report_cache store =
  let hits = Inum.Keyed.hits store and misses = Inum.Keyed.misses store in
  report "inum.cache_hit_rate" "ratio" (Inum.Keyed.hit_rate store)
    ~note:(Printf.sprintf "%d hits / %d keyed-store lookups" hits (hits + misses));
  count "inum.cache_misses" misses

let report_probes ~probes ~templates =
  count "inum.probes" probes ~note:"optimizer probes, forced ones included";
  count "inum.templates" templates;
  report "inum.templates_per_probe" "ratio"
    (ratio (float templates) (float probes))
    ~note:(Printf.sprintf "%d templates / %d probes" templates probes)

let report_bip sp =
  count "sproblem.vars" (Cophy.Sproblem.variable_count sp);
  count "sproblem.blocks" (Cophy.Sproblem.num_blocks sp)

let index_names config = List.map Storage.Index.to_string (Storage.Config.to_list config)

(* ---------- inputs ---------- *)

(* A workload's instance is fixed by this generator seed; the run's
   [--seed] varies only how its SQL is spelled, so on the batch workloads
   every seed hands the advisor the same statements.  CoPhy's solve time
   moves 2-3x under any change to the instance -- another generator seed,
   another statement order, or frequencies scaled by 0.9-1.1 -- which
   would swamp any change being measured. *)
let generator_seed = 7

(* Random letter case outside quotes and comments (keywords match
   case-insensitively and identifiers are lowercased), and each space
   widened to one to three. *)
let respell rng sql =
  let b = Buffer.create (String.length sql + 64) in
  let n = String.length sql in
  let rec go i st =
    if i < n then begin
      let c = sql.[i] in
      let next_is d = i + 1 < n && sql.[i + 1] = d in
      match st with
      | `Code when c = '/' && next_is '*' ->
          Buffer.add_string b "/*";
          go (i + 2) `Comment
      | `Code when c = ' ' ->
          Buffer.add_string b (String.make (1 + Random.State.int rng 3) ' ');
          go (i + 1) `Code
      | `Code ->
          Buffer.add_char b
            (if Random.State.bool rng then Char.uppercase_ascii c else Char.lowercase_ascii c);
          go (i + 1) (if c = '\'' then `Quote else `Code)
      | `Quote ->
          Buffer.add_char b c;
          go (i + 1) (if c = '\'' then `Code else `Quote)
      | `Comment when c = '*' && next_is '/' ->
          Buffer.add_string b "*/";
          go (i + 2) `Code
      | `Comment ->
          Buffer.add_char b c;
          go (i + 1) `Comment
    end
  in
  go 0 `Code;
  Buffer.contents b

(* The SQL text of [stmt], plain and respelled. *)
let respelled rng stmt =
  let sql = Sqlast.Print.statement_to_string stmt in
  (sql, respell rng sql)

(* After set-up, outside its timing: the respelled text parsed to the
   statement the plain text parses to.  Printing is lossy: the parsed
   statements of the serve stream have 38 canonical keys where the
   generated ones have 58. *)
let check_respelled schema ~sql parsed =
  let key = Sqlast.Canon.statement_key in
  check "respelled SQL parses to the same statement"
    (String.equal (key (Sqlast.Parse.statement schema sql)) (key parsed))

(* [parsed] with [orig]'s statement id: SQL text carries no id, and the
   parser numbers statements from a process-wide counter. *)
let with_id orig parsed =
  match (orig, parsed) with
  | Sqlast.Ast.Select o, Sqlast.Ast.Select p ->
      Sqlast.Ast.Select { p with Sqlast.Ast.query_id = o.Sqlast.Ast.query_id }
  | Sqlast.Ast.Update o, Sqlast.Ast.Update p ->
      Sqlast.Ast.Update { p with Sqlast.Ast.update_id = o.Sqlast.Ast.update_id }
  | _ -> parsed

(* ---------- batch workloads ---------- *)

type batch = {
  gen : Catalog.Schema.t -> n:int -> seed:int -> Sqlast.Ast.workload;
  n : int;
  probe_budget : int option;
}

let budget_fraction = 0.5

(* The advise spine through the public session API, one span per call:
   what Advisor.advise does, with every BIP (re)build and the refine loop
   made visible.  Returns the final report, the session and the refine
   loop's (rounds, rounds that changed the configuration, probes
   forced). *)
let traced_spine schema w b =
  let options = { Cophy.Solver.default_options with Cophy.Solver.jobs = 1 } in
  let budget = budget_fraction *. Catalog.Tpch.database_size schema in
  span "advisor.advise" @@ fun () ->
  let candidates = span "cgen.generate" (fun () -> Cophy.Cgen.generate w) in
  let s =
    span "inum.build" (fun () ->
        Cophy.Interactive.create ~constraints:[] ~jobs:1 ~candidates ?probe_budget:b.probe_budget
          schema w ~budget)
  in
  let retune () =
    ignore (span "sproblem.build" (fun () -> Cophy.Interactive.problem s));
    span "solver.retune" (fun () -> Cophy.Interactive.retune ~options s)
  in
  let first = retune () in
  let sp = Cophy.Interactive.problem s in
  ignore
    (span "sproblem.eval" (fun () ->
         Cophy.Sproblem.eval ~jobs:1 sp (Array.make (Cophy.Sproblem.num_candidates sp) false)));
  let rounds = ref 0 and useful = ref 0 and forced = ref 0 in
  let final =
    span "advisor.refine" @@ fun () ->
    let rec converge (r : Cophy.Solver.report) left =
      let f =
        if left = 0 then 0
        else span "inum.refine" (fun () -> Cophy.Interactive.refine_at s r.Cophy.Solver.config)
      in
      if f = 0 then r
      else begin
        forced := !forced + f;
        let r' = retune () in
        incr rounds;
        if not (Storage.Config.equal r.Cophy.Solver.config r'.Cophy.Solver.config) then incr useful;
        converge r' (left - 1)
      end
    in
    converge first 8
  in
  (final, s, (!rounds, !useful, !forced))

let run_batch ~seed ~seconds ~trace b =
  let setup () =
    let schema = Catalog.Tpch.schema () in
    let rng = Random.State.make [| seed |] in
    let parse (x : Sqlast.Ast.weighted) =
      let sql, sql' = respelled rng x.stmt in
      let p = Sqlast.Parse.statement schema sql' in
      ((sql, p), { x with stmt = with_id x.stmt p })
    in
    let parsed, w = List.split (List.map parse (b.gen schema ~n:b.n ~seed:generator_seed)) in
    (schema, parsed, w)
  in
  let schema, parsed, w = time_setup setup in
  List.iter (fun (sql, p) -> check_respelled schema ~sql p) parsed;
  let budget = budget_fraction *. Catalog.Tpch.database_size schema in
  let n_stmts = List.length w in
  let runs =
    timed_loop ~seconds:(if trace then seconds /. 2.0 else seconds) ~min_calls:(if trace then 1 else 2)
      (fun () -> Cophy.Advisor.advise ~jobs:1 ?probe_budget:b.probe_budget schema w ~budget_fraction)
  in
  report_setup setup;
  let times = List.map fst runs in
  let first = snd (List.hd runs) in
  let objective (r : Cophy.Advisor.recommendation) = r.Cophy.Advisor.report.Cophy.Solver.objective in
  List.iter
    (fun (_, (r : Cophy.Advisor.recommendation)) ->
      let rep = r.Cophy.Advisor.report in
      check "recommendation fits the storage budget"
        (Storage.Config.total_size schema r.Cophy.Advisor.config <= budget);
      check "objective >= bound" (rep.Cophy.Solver.objective >= rep.Cophy.Solver.bound);
      check "every advise in the run returns the same objective and indexes"
        (Int64.equal (Int64.bits_of_float (objective r)) (Int64.bits_of_float (objective first))
        && index_names r.Cophy.Advisor.config = index_names first.Cophy.Advisor.config))
    runs;
  let k = List.length times in
  let advise_s = hd_quantile times 0.5 in
  samples_line "advise" "s" times;
  Printf.printf "# %d advises of %d statements; objective %.17g, %d indexes\n" k n_stmts
    (objective first) (Storage.Config.cardinal first.Cophy.Advisor.config);
  report "advise_p50_ms" "ms" (advise_s *. 1000.0)
    ~note:(Printf.sprintf "advise_s = %.6f s, Harrell-Davis median of %d advises" advise_s k);
  report "advise_tail_ms" "ms" (List.fold_left Float.max 0.0 times *. 1000.0)
    ~note:(Printf.sprintf "slowest of %d advises: too few for a percentile" k);
  report "events_per_s" "1/s" (float (n_stmts * k) /. sum times)
    ~note:(Printf.sprintf "%d statements x %d advises / %.6f s" n_stmts k (sum times));
  report_quality schema w first.Cophy.Advisor.config ~estimate:(objective first)
    ~gap:first.Cophy.Advisor.report.Cophy.Solver.gap;
  report_heap ();
  if trace then begin
    let traced, counter, _ =
      with_program_trace (fun () ->
          timed_loop ~seconds:(seconds /. 2.0) ~min_calls:1 (fun () -> traced_spine schema w b))
    in
    let reps = float (List.length traced) in
    let per_spine name = span_total name /. reps in
    let final, s, (rounds, useful, forced) = snd (List.hd (List.rev traced)) in
    let stats = Cophy.Interactive.stats s and cache = Cophy.Interactive.cache s in
    report_spans ~per:reps ();
    report "inum.build_s" "s" (per_spine "inum.build") ~note:"per spine";
    report_probes ~probes:(Inum.total_init_calls cache) ~templates:(Runtime.Stats.inum_templates stats);
    count "inum.pending" (Inum.cache_pending cache);
    count "inum.truncated" (Inum.cache_truncated cache);
    report "inum.refine_s" "s" (per_spine "inum.refine") ~note:"per spine";
    count "inum.refine_probes" forced;
    count "advisor.refine_rounds" rounds;
    report "advisor.refine_useful_ratio" "ratio"
      (ratio (float useful) (float rounds))
      ~note:(Printf.sprintf "%d config-changing rounds / %d rounds" useful rounds);
    report_cache (Cophy.Interactive.store s);
    report "cgen.s" "s" (per_spine "cgen.generate") ~note:"per spine";
    count "cgen.candidates" (List.length (Cophy.Interactive.candidates s));
    report "sproblem.build_s" "s" (per_spine "sproblem.build") ~note:"per spine, every BIP (re)build";
    report_bip (Cophy.Interactive.problem s);
    report "solver.solve_s" "s" (per_spine "solver.retune") ~note:"per spine, every retune";
    report "solver.retunes" "count" (float (span_count "solver.retune") /. reps) ~note:"per spine";
    count "solver.subproblem_solves" (Runtime.Stats.subproblem_solves stats);
    report_lp counter ~per:reps;
    List.iter
      (fun n -> report n "s" 0.0 ~note:"no serve layer in a batch workload")
      [ "serve.flush_s"; "serve.recommend_s"; "serve.statement_s" ];
    count "serve.session_statements" 0;
    report_overhead ~traced:(median (List.map fst traced)) ~untraced:advise_s ~what:"advise";
    let same =
      index_names final.Cophy.Solver.config = index_names first.Cophy.Advisor.config
      && Float.equal final.Cophy.Solver.objective (objective first)
    in
    report "trace.same_recommendation" "bool" (if same then 1.0 else 0.0)
      ~note:"traced spine reached Advisor.advise's answer (reported, not checked)"
  end

(* ---------- serve workload ---------- *)

(* The stream drifts across the population and back: 2 x 600
   observations, the window's centre moving one statement every 20, and
   120 recommends.  On the way back, statements that left the window
   return, and their keyed-store entries are hit.  Sized so that a 55 s
   run holds several replays: a recommend's latency is its median over
   the run's replays, as one replay's latencies swing with the host's
   speed. *)
let serve_n = 30
let serve_events = 600
let recommend_every = 10
let update_fraction = 0.2
let min_replays = 3

type line = Observe of string | Recommend of string

(* The protocol lines of the drift stream, and the (plain, respelled) SQL
   text of each statement line with its weight delta. *)
let render_stream schema ~seed =
  let rng = Random.State.make [| seed |] in
  let there =
    Workload.Replay.drift ~recommend_every ~update_fraction schema ~n:serve_n
      ~events:serve_events ~seed:generator_seed
  in
  (* [there] ends in a recommend; so does the way back *)
  let back = List.tl (List.rev there) @ [ Workload.Replay.Recommend ] in
  let events = there @ back in
  let texts = ref [] in
  let line fields = Serve.Json.to_string (Serve.Json.Obj fields) in
  let render = function
    | Workload.Replay.Statement (stmt, delta) ->
        let sql, sql' = respelled rng stmt in
        texts := (sql, sql', delta) :: !texts;
        Observe
          (line
             [
               ("op", Serve.Json.Str "statement");
               ("sql", Serve.Json.Str sql');
               ("delta", Serve.Json.Num delta);
             ])
    | Workload.Replay.Recommend -> Recommend (line [ ("op", Serve.Json.Str "recommend") ])
  in
  let lines = Array.of_list (List.map render events) in
  (lines, List.rev !texts)

(* After set-up, outside its timing: check the respelled texts and count
   the distinct keyed-store keys among the statements the engine will
   parse from them. *)
let distinct_keys schema texts =
  let keys = Hashtbl.create 256 in
  List.iter
    (fun (sql, sql', delta) ->
      let parsed = Sqlast.Parse.statement schema sql' in
      check_respelled schema ~sql parsed;
      (* the keyed store holds SELECTs and UPDATE query shells *)
      List.iter
        (fun (q, _) -> Hashtbl.replace keys (Sqlast.Canon.key q) ())
        (Sqlast.Ast.selects [ { Sqlast.Ast.stmt = parsed; weight = delta } ]))
    texts;
  Hashtbl.length keys

type replay = {
  engine : Serve.Engine.t;
  replies : string array;
  rec_ms : float list;  (** recommend latencies *)
  wall : float;
  solve_s : float;  (** the solver's own seconds, summed over the recommends *)
  entered : Sqlast.Ast.workload;  (** statements that entered the session (traced only) *)
}

let statement_ids w = List.map (fun (x : Sqlast.Ast.weighted) -> Sqlast.Ast.statement_id x.stmt) w

(* One replay: every line through handle_line, one at a time.  Under
   tracing, flush and the BIP build are called (and timed) right before
   each recommend: the same work recommend would otherwise do itself; and
   the statements each flush added to the session are collected. *)
let replay schema lines =
  let engine = Serve.Engine.create ~jobs:1 schema in
  let session = Serve.Engine.session engine in
  let replies = Array.make (Array.length lines) "" in
  let rec_ms = ref [] and solve_s = ref 0.0 and entered = ref [] in
  let t0 = now () in
  Array.iteri
    (fun i l ->
      match l with
      | Observe s -> replies.(i) <- span "serve.statement" (fun () -> Serve.Engine.handle_line engine s)
      | Recommend s ->
          if !tracing then begin
            let before = statement_ids (Cophy.Interactive.workload session) in
            span "serve.flush" (fun () -> Serve.Engine.flush engine);
            List.iter
              (fun (x : Sqlast.Ast.weighted) ->
                if not (List.mem (Sqlast.Ast.statement_id x.stmt) before) then
                  entered := x :: !entered)
              (Cophy.Interactive.workload session);
            ignore (span "sproblem.build" (fun () -> Cophy.Interactive.problem session))
          end;
          let r0 = now () in
          replies.(i) <- span "serve.recommend" (fun () -> Serve.Engine.handle_line engine s);
          rec_ms := ((now () -. r0) *. 1000.0) :: !rec_ms;
          Option.iter
            (fun (r : Cophy.Solver.report) -> solve_s := !solve_s +. r.Cophy.Solver.solve_seconds)
            (Cophy.Interactive.last_report session))
    lines;
  let wall = now () -. t0 in
  { engine; replies; rec_ms = List.rev !rec_ms; wall; solve_s = !solve_s; entered = List.rev !entered }

let check_replay ~distinct r =
  Array.iter
    (fun reply ->
      check "reply ok:true"
        (match Serve.Json.member "ok" (Serve.Json.of_string reply) with
        | Some (Serve.Json.Bool true) -> true
        | _ -> false
        | exception Serve.Json.Parse_error _ -> false))
    r.replies;
  (* repeat_probes = 0: a repeat canonical key costs no probe *)
  let misses = Inum.Keyed.misses (Cophy.Interactive.store (Serve.Engine.session r.engine)) in
  check
    (Printf.sprintf "repeat_probes = 0 (keyed-store misses %d, distinct keys %d)" misses distinct)
    (misses = distinct)

(* Flush's candidate generation has no span of its own: time the same
   calls again, Cgen.generate on each statement that entered at a flush,
   one statement per call as flush makes them. *)
let cgen_seconds entered =
  let t0 = now () in
  List.iter (fun x -> ignore (Cophy.Cgen.generate [ x ])) entered;
  now () -. t0

let run_serve ~seed ~seconds ~trace =
  let setup () =
    let schema = Catalog.Tpch.schema () in
    (schema, render_stream schema ~seed)
  in
  let schema, (lines, texts) = time_setup setup in
  let distinct = distinct_keys schema texts in
  let nlines = Array.length lines in
  let untraced =
    List.map snd
      (timed_loop ~seconds:(if trace then seconds /. 2.0 else seconds) ~min_calls:min_replays (fun () ->
           replay schema lines))
  in
  report_setup setup;
  List.iter (check_replay ~distinct) untraced;
  let walls = List.map (fun r -> r.wall) untraced in
  (* each recommend's latency: its median over the replays *)
  let latencies = List.map (fun r -> Array.of_list r.rec_ms) untraced in
  let rec_ms =
    List.init (Array.length (List.hd latencies)) (fun i -> median (List.map (fun a -> a.(i)) latencies))
  in
  let session = Serve.Engine.session (List.hd untraced).engine in
  let last = Option.get (Cophy.Interactive.last_report session) in
  let k = List.length walls and nrec = List.length rec_ms in
  let replay_s = median walls in
  samples_line "replay" "s" walls;
  samples_line "recommend (median over replays)" "ms" rec_ms;
  Printf.printf "# %d replays of %d lines (%d recommends each); final window %d statements\n" k
    nlines nrec
    (List.length (Cophy.Interactive.workload session));
  report "advise_p50_ms" "ms" (hd_quantile rec_ms 0.5)
    ~note:
      (Printf.sprintf "recommend_p50_ms, Harrell-Davis over %d recommends, each the median of %d replays"
         nrec k);
  report "advise_tail_ms" "ms" (hd_quantile rec_ms 0.9)
    ~note:
      (Printf.sprintf "recommend_p90_ms, Harrell-Davis over %d recommends (%d above rank p90), each the median of %d replays"
         nrec
         (nrec - int_of_float (Float.ceil (0.9 *. float nrec)))
         k);
  report "events_per_s" "1/s" (float nlines /. replay_s)
    ~note:(Printf.sprintf "%d lines / %.6f s, median of %d replays" nlines replay_s k);
  report_quality schema (Cophy.Interactive.workload session) last.Cophy.Solver.config
    ~estimate:last.Cophy.Solver.objective ~gap:last.Cophy.Solver.gap;
  report_heap ();
  if trace then begin
    (* the program's inum.add_statements spans time INUM inside flush, and
       Solver.report.solve_seconds the solver inside recommend *)
    let traced, counter, program_span = with_program_trace (fun () -> replay schema lines) in
    check_replay ~distinct traced;
    let cgen_s = cgen_seconds traced.entered and inum_s = program_span "inum.add_statements" in
    let session = Serve.Engine.session traced.engine in
    let stats = Cophy.Interactive.stats session in
    report_spans ~moved:[ ("solver", traced.solve_s); ("cgen", cgen_s); ("inum", inum_s) ] ~per:1.0 ();
    report "inum.build_s" "s" inum_s
      ~note:(Printf.sprintf "inside serve.flush; %d program spans dropped" (Runtime.Trace.dropped_spans ()));
    report_probes ~probes:(Runtime.Stats.inum_probes stats) ~templates:(Runtime.Stats.inum_templates stats);
    count "inum.pending" (Inum.cache_pending (Cophy.Interactive.cache session));
    count "inum.truncated" (counter "inum.combos_truncated");
    List.iter
      (fun (n, u) -> report n u 0.0 ~note:"unlimited probes: no refine loop")
      [ ("inum.refine_s", "s"); ("inum.refine_probes", "count"); ("advisor.refine_rounds", "count");
        ("advisor.refine_useful_ratio", "ratio") ];
    report_cache (Cophy.Interactive.store session);
    report "cgen.s" "s" cgen_s
      ~note:
        (Printf.sprintf "Cgen.generate on the %d statements flushes added, timed again after the replay"
           (List.length traced.entered));
    count "cgen.candidates" (List.length (Cophy.Interactive.candidates session));
    report "sproblem.build_s" "s" (span_total "sproblem.build");
    report_bip (Cophy.Interactive.problem session);
    report "solver.solve_s" "s" traced.solve_s ~note:"Solver.report.solve_seconds, inside serve.recommend";
    count "solver.retunes" (span_count "serve.recommend");
    count "solver.subproblem_solves" (Runtime.Stats.subproblem_solves stats);
    report_lp counter ~per:1.0;
    report "serve.flush_s" "s" (span_total "serve.flush");
    report "serve.recommend_s" "s" (span_total "serve.recommend");
    report "serve.statement_s" "s" (span_total "serve.statement");
    count "serve.session_statements" (Serve.Engine.session_statements traced.engine);
    report_overhead ~traced:traced.wall ~untraced:replay_s ~what:"replay";
    let tlast = Option.get (Cophy.Interactive.last_report session) in
    report "trace.same_recommendation" "bool"
      (if index_names tlast.Cophy.Solver.config = index_names last.Cophy.Solver.config then 1.0
       else 0.0)
      ~note:"traced replay reached the untraced final answer (reported, not checked)"
  end

(* ---------- output ---------- *)

(* The end-to-end metrics of BENCHMARK.json: the untraced run's result.
   The traced run's result is every other metric. *)
let end_to_end =
  [ "setup_s"; "advise_p50_ms"; "advise_tail_ms"; "events_per_s"; "cost_ratio"; "gap"; "peak_heap_mb" ]

let print_result ~trace =
  let ms = List.rev !metrics in
  Printf.printf "# %-30s %22s %-6s %s\n" "metric" "value" "unit" "note";
  List.iter (fun m -> Printf.printf "  %-30s %22.9g %-6s %s\n" m.name m.value m.unit_ m.note) ms;
  Printf.printf "  %-30s %22.9g %-6s %d failed / %d attempted\n" "error_rate"
    (ratio (float !failed) (float !attempted))
    "ratio" !failed !attempted;
  let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  let body =
    List.filter (fun m -> List.mem m.name end_to_end <> trace) ms
    |> List.map (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit_)
  in
  let correct = !failed = 0 && List.for_all (fun m -> Float.is_finite m.value) ms in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    !attempted !failed (String.concat ", " body);
  correct

let () =
  let workload = ref "" and seed = ref 7 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "hom-batch | het-batch | serve-drift");
      ("--seed", Arg.Set_int seed, "SQL spelling seed (default 7)");
      ("--seconds", Arg.Set_float seconds, "measuring time per run (default 10)");
      ("--trace", Arg.Set_int trace, "1: traced run with per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]";
  let seed = !seed and seconds = !seconds and trace = !trace = 1 in
  Printf.printf "# workload %s generator seed %d seed %d seconds %g trace %b; closed loop, 1 caller, jobs 1\n%!"
    !workload generator_seed seed seconds trace;
  (match !workload with
  | "hom-batch" ->
      run_batch ~seed ~seconds ~trace { gen = Workload.Gen.hom; n = 1000; probe_budget = Some 16 }
  | "het-batch" -> run_batch ~seed ~seconds ~trace { gen = Workload.Gen.het; n = 100; probe_budget = None }
  | "serve-drift" -> run_serve ~seed ~seconds ~trace
  | w ->
      Printf.eprintf "unknown workload %S\n" w;
      exit 2);
  if not (print_result ~trace) then exit 1
