(* Tests for the serve layer: the hand-rolled JSON codec and the
   protocol engine (dedupe, sliding window, warm recommendations,
   trace-invariant determinism). *)

open Sqlast

let schema = Catalog.Tpch.schema ()

(* --- Json --- *)

let test_json_print () =
  let v =
    Serve.Json.Obj
      [
        ("s", Serve.Json.Str "a\"b\\c\nd");
        ("i", Serve.Json.Num 42.0);
        ("f", Serve.Json.Num 1.5);
        ("nan", Serve.Json.Num Float.nan);
        ("l", Serve.Json.List [ Serve.Json.Bool true; Serve.Json.Null ]);
      ]
  in
  Alcotest.(check string) "printing"
    {|{"s":"a\"b\\c\nd","i":42,"f":1.5,"nan":null,"l":[true,null]}|}
    (Serve.Json.to_string v)

let test_json_parse () =
  let v =
    Serve.Json.of_string
      {| { "op" : "statement", "delta": -2.5e1, "t":true, "u":"A\n",
           "xs": [1, 2, {"y": null}] } |}
  in
  Alcotest.(check bool) "op member" true
    (Serve.Json.member "op" v = Some (Serve.Json.Str "statement"));
  Alcotest.(check bool) "number" true
    (Option.bind (Serve.Json.member "delta" v) Serve.Json.to_float
    = Some (-25.0));
  Alcotest.(check bool) "unicode escape" true
    (Option.bind (Serve.Json.member "u" v) Serve.Json.to_str = Some "A\n");
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %S" bad)
        true
        (match Serve.Json.of_string bad with
        | _ -> false
        | exception Serve.Json.Parse_error _ -> true))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "{} trailing"; "\"unterminated" ]

(* Printed values reparse to themselves (for the value space the daemon
   emits: finite numbers that survive the %.12g print precision). *)
let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Serve.Json.Null;
        map (fun b -> Serve.Json.Bool b) bool;
        map (fun i -> Serve.Json.Num (float_of_int i)) (int_range (-1000) 1000);
        map (fun s -> Serve.Json.Str s) (string_size ~gen:printable (0 -- 12));
      ]
  in
  let value =
    oneof
      [
        scalar;
        map (fun xs -> Serve.Json.List xs) (list_size (0 -- 6) scalar);
        map
          (fun kvs -> Serve.Json.Obj kvs)
          (list_size (0 -- 6)
             (pair (string_size ~gen:printable (1 -- 8)) scalar));
      ]
  in
  value

let prop_json_roundtrip =
  QCheck.Test.make ~name:"printed JSON reparses to itself" ~count:200
    (QCheck.make json_gen)
    (fun v -> Serve.Json.of_string (Serve.Json.to_string v) = v)

(* --- Engine --- *)

let sql_of stmt = Print.statement_to_string stmt

let statements ~n ~seed =
  Workload.Gen.hom schema ~n ~seed
  |> List.map (fun { Ast.stmt; _ } -> stmt)

let engine ?window ?certify () = Serve.Engine.create ?window ?certify schema

let observe_all e stmts =
  List.iter (fun s -> Serve.Engine.observe e s 1.0) stmts

let test_engine_dedupe () =
  let e = engine () in
  let stmts = statements ~n:3 ~seed:5 in
  observe_all e stmts;
  observe_all e stmts;
  Serve.Engine.flush e;
  Alcotest.(check int) "one entry per canonical key" (List.length stmts)
    (Serve.Engine.session_statements e);
  Alcotest.(check int) "window counts every event" (2 * List.length stmts)
    (Serve.Engine.window_size e);
  (* repeat observations reached the session without new INUM builds *)
  let store = Cophy.Interactive.store (Serve.Engine.session e) in
  Alcotest.(check int) "distinct builds only" (List.length stmts)
    (Inum.Keyed.misses store)

let test_engine_window_eviction () =
  let e = engine ~window:4 () in
  let stmts = statements ~n:2 ~seed:6 in
  (* fill the window with the first statement, then push it out *)
  List.iter (fun _ -> Serve.Engine.observe e (List.hd stmts) 1.0) [ 1; 2; 3; 4 ];
  Serve.Engine.flush e;
  Alcotest.(check int) "one statement" 1 (Serve.Engine.session_statements e);
  List.iter
    (fun _ -> Serve.Engine.observe e (List.nth stmts 1) 1.0)
    [ 1; 2; 3; 4 ];
  Serve.Engine.flush e;
  Alcotest.(check int) "window capped" 4 (Serve.Engine.window_size e);
  Alcotest.(check int) "zero-mass key left the session" 1
    (Serve.Engine.session_statements e)

let member_exn k v =
  match Serve.Json.member k v with
  | Some x -> x
  | None -> Alcotest.failf "missing %S in %s" k (Serve.Json.to_string v)

let test_engine_recommend_whatif_stats () =
  let e = engine () in
  let stmts = statements ~n:3 ~seed:7 in
  observe_all e stmts;
  (* certify:true (the default) would have raised on a bad solution *)
  let r = Serve.Engine.recommend e in
  Alcotest.(check bool) "ok" true (member_exn "ok" r = Serve.Json.Bool true);
  (match member_exn "indexes" r with
  | Serve.Json.List ixs ->
      Alcotest.(check bool) "some indexes" true (List.length ixs > 0)
  | _ -> Alcotest.fail "indexes not a list");
  Alcotest.(check bool) "latency fields present" true
    (Serve.Json.member "p50_ms" r <> None
    && Serve.Json.member "p99_ms" r <> None);
  let wi = Serve.Engine.whatif e (List.hd stmts) in
  Alcotest.(check bool) "whatif ok" true
    (member_exn "ok" wi = Serve.Json.Bool true);
  let improvement =
    Option.get (Serve.Json.to_float (member_exn "improvement" wi))
  in
  Alcotest.(check bool) "recommended config no worse" true
    (improvement >= 0.0);
  let st = Serve.Engine.stats_response e in
  Alcotest.(check bool) "whatif was a cache hit" true
    (Option.get (Serve.Json.to_float (member_exn "cache_hits" st)) >= 1.0);
  Alcotest.(check bool) "probes counted" true
    (Option.get (Serve.Json.to_float (member_exn "inum_probes" st)) > 0.0)

let test_handle_line_errors () =
  let e = engine () in
  let expect_error line =
    let resp = Serve.Json.of_string (Serve.Engine.handle_line e line) in
    Alcotest.(check bool)
      (Printf.sprintf "error for %s" line)
      true
      (member_exn "ok" resp = Serve.Json.Bool false
      && Serve.Json.member "error" resp <> None)
  in
  expect_error "not json";
  expect_error {|{"no_op":1}|};
  expect_error {|{"op":"frobnicate"}|};
  expect_error {|{"op":"statement"}|};
  expect_error {|{"op":"statement","sql":"SELECT garbage FROM nowhere"}|};
  expect_error {|{"op":"whatif","sql":"UPDATE orders SET o_comment = ?"}|}

(* The protocol is deterministic in the event stream: replies are byte
   identical across runs and trace on/off, once the named latency
   fields are stripped. *)
let strip_latency v =
  match v with
  | Serve.Json.Obj kvs ->
      Serve.Json.Obj
        (List.filter
           (fun (k, _) ->
             String.length k < 3 || String.sub k (String.length k - 3) 3 <> "_ms")
           kvs)
  | v -> v

let replay e lines =
  List.map (fun l -> Serve.Json.of_string (Serve.Engine.handle_line e l)) lines

(* Replay [lines] on a fresh engine from [make], then again traced;
   checks the stripped reply streams agree and returns the plain
   replies. *)
let replay_plain_traced make lines =
  let plain = replay (make ()) lines in
  Runtime.Trace.reset ();
  Runtime.Trace.enable ();
  let traced =
    Fun.protect ~finally:Runtime.Trace.disable (fun () ->
        replay (make ()) lines)
  in
  let strip rs = List.map (fun r -> Serve.Json.to_string (strip_latency r)) rs in
  List.iter2
    (Alcotest.(check string) "trace does not change replies")
    (strip plain) (strip traced);
  plain

let test_engine_deterministic_under_trace () =
  let stmts = statements ~n:3 ~seed:8 in
  let lines =
    List.concat_map
      (fun s ->
        [
          Serve.Json.to_string
            (Serve.Json.Obj
               [
                 ("op", Serve.Json.Str "statement");
                 ("sql", Serve.Json.Str (sql_of s));
                 ("delta", Serve.Json.Num 2.0);
               ]);
        ])
      stmts
    @ [ {|{"op":"recommend"}|}; {|{"op":"stats"}|} ]
  in
  ignore (replay_plain_traced engine lines);
  Alcotest.(check bool) "serve spans recorded" true
    (List.length (Runtime.Trace.spans ()) > 0)

(* --- The committed fixture stream, as the daemon replays it --- *)

let fixture_lines () =
  let ic = open_in "fixtures/serve_smoke.jsonl" in
  let rec read acc =
    match input_line ic with
    | line -> read (if String.trim line = "" then acc else line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  read []

(* The daemon's defaults: window 256, storage budget 0.25, probe budget
   16, certification on. *)
let daemon_engine () =
  Serve.Engine.create ~window:256 ~budget_fraction:0.25 ~probe_budget:16 schema

let num k v = Option.get (Serve.Json.to_float (member_exn k v))

let op_is name v = Serve.Json.member "op" v = Some (Serve.Json.Str name)

let check_all_ok replies =
  List.iter
    (fun r ->
      Alcotest.(check bool)
        ("ok: " ^ Serve.Json.to_string r)
        true
        (member_exn "ok" r = Serve.Json.Bool true))
    replies

(* Plain and traced replays give the same replies once the latency
   fields are stripped; every reply is ok, every recommendation is
   non-empty with a non-negative gap and latency quantiles, the final
   stats saw optimizer probes, and the traced run recorded serve.*
   spans. *)
let test_fixture_replay () =
  let plain = replay_plain_traced daemon_engine (fixture_lines ()) in
  check_all_ok plain;
  let recs = List.filter (op_is "recommend") plain in
  Alcotest.(check bool) "a recommendation was served" true (recs <> []);
  List.iter
    (fun r ->
      Alcotest.(check bool) "non-empty indexes" true
        (member_exn "indexes" r <> Serve.Json.List []);
      Alcotest.(check bool) "gap >= 0" true (num "gap" r >= 0.0);
      ignore (num "p50_ms" r, num "p99_ms" r))
    recs;
  (match List.rev (List.filter (op_is "stats") plain) with
  | st :: _ ->
      Alcotest.(check bool) "inum_probes > 0" true (num "inum_probes" st > 0.0)
  | [] -> Alcotest.fail "no stats reply");
  Alcotest.(check bool) "serve.* spans recorded" true
    (List.exists
       (fun (sp : Runtime.Trace.span) ->
         String.starts_with ~prefix:"serve." sp.Runtime.Trace.sname)
       (Runtime.Trace.spans ()))

(* An infinite frequency delta would never leave the window and would
   make every later recommend raise [Solver.Infeasible]: it is rejected
   without touching the engine, and the fixture then replays cleanly. *)
let test_nonfinite_delta_rejected () =
  let e = daemon_engine () in
  let events () = num "events" (Serve.Engine.stats_response e) in
  let before = events () in
  let sql = sql_of (List.hd (statements ~n:1 ~seed:7)) in
  let bad =
    Serve.Json.of_string
      (Serve.Engine.handle_line e
         (Printf.sprintf {|{"op":"statement","sql":%s,"delta":1e999}|}
            (Serve.Json.to_string (Serve.Json.Str sql))))
  in
  Alcotest.(check bool) "rejected" true
    (member_exn "ok" bad = Serve.Json.Bool false
    && Serve.Json.member "error" bad <> None);
  Alcotest.(check (float 0.0)) "events unchanged" before (events ());
  check_all_ok (replay e (fixture_lines ()))

(* --- Drifting replay at benchmark scale --- *)

(* Replay.drift over n=100 templates, 300 events: a repeat of a
   canonical key never costs an optimizer probe (keyed-store misses =
   distinct keys).  Then three reweight steps: each warm retune lands
   within the solver's gap tolerance of a cold solve of the same
   instance (fresh optimizer env, store and multipliers). *)
let test_drift_replay () =
  let events =
    Workload.Replay.drift ~recommend_every:50 schema ~n:100 ~events:300 ~seed:7
  in
  let e = Serve.Engine.create ~window:256 schema in
  let distinct = Hashtbl.create 64 in
  List.iter
    (function
      | Workload.Replay.Statement (st, d) ->
          Hashtbl.replace distinct (Canon.statement_key st) ();
          Serve.Engine.observe e st d
      | Workload.Replay.Recommend -> ignore (Serve.Engine.recommend e))
    events;
  let session = Serve.Engine.session e in
  Alcotest.(check int) "repeat_probes = 0" (Hashtbl.length distinct)
    (Inum.Keyed.misses (Cophy.Interactive.store session));
  let options =
    {
      Cophy.Solver.default_options with
      Cophy.Solver.method_ = Cophy.Solver.Decomposed;
      certify = true;
    }
  in
  let budget = 0.25 *. Catalog.Tpch.database_size schema in
  for step = 1 to 3 do
    let w = Cophy.Interactive.workload session in
    let victim = List.nth w (step mod List.length w) in
    Cophy.Interactive.set_weight session
      (Ast.statement_id victim.Ast.stmt)
      (victim.Ast.weight *. 1.5);
    let warm = Cophy.Interactive.retune ~options session in
    let cold =
      Cophy.Interactive.retune ~options
        (Cophy.Interactive.create
           ~candidates:(Cophy.Interactive.candidates session)
           schema
           (Cophy.Interactive.workload session)
           ~budget)
    in
    let obj (r : Cophy.Solver.report) = r.Cophy.Solver.objective in
    let rel = Float.abs (obj warm -. obj cold) /. Float.max 1.0 (obj cold) in
    Alcotest.(check bool)
      (Printf.sprintf "step %d: warm within the gap of cold (rel %.2e)" step rel)
      true
      (rel <= options.Cophy.Solver.gap_tolerance)
  done

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "print" `Quick test_json_print;
          Alcotest.test_case "parse" `Quick test_json_parse;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
        ] );
      ( "engine",
        [
          Alcotest.test_case "dedupe" `Quick test_engine_dedupe;
          Alcotest.test_case "window eviction" `Quick
            test_engine_window_eviction;
          Alcotest.test_case "recommend/whatif/stats" `Quick
            test_engine_recommend_whatif_stats;
          Alcotest.test_case "protocol errors" `Quick test_handle_line_errors;
          Alcotest.test_case "deterministic under trace" `Quick
            test_engine_deterministic_under_trace;
        ] );
      ( "fixture",
        [
          Alcotest.test_case "replay: plain = traced, all ok" `Quick
            test_fixture_replay;
          Alcotest.test_case "non-finite delta rejected" `Quick
            test_nonfinite_delta_rejected;
        ] );
      ( "drift",
        [
          Alcotest.test_case "n=100: no repeat probes, warm = cold" `Slow
            test_drift_replay;
        ] );
    ]
