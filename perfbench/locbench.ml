(* locbench: run one benchmark workload in this process and print its
   result line.

     locbench --workload NAME --seed N --seconds S --trace 0|1

   Untraced runs (--trace 0) report the end-to-end metrics; traced runs
   (--trace 1) report the per-layer metrics.  The last line of stdout is
   the result object; the line before it is the run's provenance.  The
   exit code is 0 only when every output check passed. *)

let per_layer_metrics =
  [
    ("gibbs.infer_calls_per_op", "count");
    ("gibbs.infer_us_per_call", "us");
    ("gibbs.infer_words_per_call", "words");
    ("gibbs.infer_share", "frac");
    ("core.jvv.accept_frac", "frac");
    ("core.jvv.self_ms_per_trial", "ms");
    ("core.resilient.attempts_per_op", "count");
    ("core.resilient.degraded_frac", "frac");
    ("local.self_ms_per_op", "ms");
    ("local.messages_per_op", "count");
    ("local.bits_per_message", "bits");
    ("local.ns_per_message", "ns");
    ("local.words_per_message", "words");
    ("local.plan_ms", "ms");
    ("par.overhead_frac", "frac");
    ("rng.float_ns", "ns");
    ("rng.float_words", "words");
    ("rng.discrete_ns", "ns");
    ("rng.discrete_words", "words");
    ("rng.streams_us", "us");
    ("dist.sample_ns", "ns");
    ("sketch.add_us", "us");
    ("sketch.add_words", "words");
    ("sketch.adds_per_op", "count");
    ("graph.build_ms", "ms");
    ("serve.cache_hit_frac", "frac");
    ("serve.evictions_per_req", "count");
    ("serve.batch_size_mean", "count");
    ("serve.coalesced_frac", "frac");
    ("serve.max_queue", "count");
    ("serve.engine_ms_per_req", "ms");
    ("serve.loop_ms_per_req", "ms");
    ("serve.compile_ms_per_miss", "ms");
    ("serve.execute_ms_per_req", "ms");
    ("serve.codec_us_per_req", "us");
    ("serve.codec_words_per_req", "words");
    ("serve.client_send_us", "us");
    ("shard.frame_us_per_msg", "us");
    ("shard.frame_words_per_msg", "words");
    ("gc.minor_collections_per_kop", "1/kop");
    ("gc.major_collections_per_kop", "1/kop");
    ("gc.promoted_words_per_op", "words");
    ("loadgen.late_p99_ms", "ms");
    ("trace.overhead_frac", "frac");
    ("trace.coverage_frac", "frac");
  ]

let workloads =
  [
    ("exact-batch", Exact_batch.run);
    ("flood-faulty", Flood_faulty.run);
    ("serve-cold", Serve.run);
  ]

let usage () =
  prerr_endline
    "usage: locbench --workload (exact-batch|flood-faulty|serve-cold) --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 0. and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: w :: rest ->
        workload := w;
        parse rest
    | "--seed" :: s :: rest ->
        seed := Int64.of_string_opt s;
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := Option.value ~default:0. (float_of_string_opt s);
        parse rest
    | "--trace" :: t :: rest ->
        trace := Option.value ~default:(-1) (int_of_string_opt t);
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run = match List.assoc_opt !workload workloads with Some r -> r | None -> usage () in
  let seed = match !seed with Some s -> s | None -> usage () in
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  let traced = !trace = 1 in
  let o : Common.outcome = run ~seed ~seconds:!seconds ~traced in
  let correct = List.for_all (fun (_, ok, _) -> ok) o.Common.checks in
  List.iter
    (fun (name, ok, detail) ->
      Printf.eprintf "check %s: %s (%s)\n" name (if ok then "pass" else "FAIL") detail)
    o.Common.checks;
  (match o.Common.spans with
  | Some r ->
      let dir = Filename.concat ".perfbench" "spans" in
      Common.ensure_dir dir;
      Span.write_kept r (Filename.concat dir (Printf.sprintf "%s-s%Ld.jsonl" !workload seed))
  | None -> ());
  let metrics =
    if traced then
      List.map
        (fun (name, unit) ->
          match List.find_opt (fun (n, _, _) -> n = name) o.Common.layers with
          | Some m -> m
          | None -> (name, 0., unit))
        per_layer_metrics
    else o.Common.e2e
  in
  print_endline
    (Report.provenance_line
       ([
          ("workload", `S !workload);
          ("seed", `S (Int64.to_string seed));
          ("seconds", `F !seconds);
          ("trace", `B traced);
          ("ocaml", `S Sys.ocaml_version);
          ("recommended_domains", `I (Domain.recommended_domain_count ()));
        ]
       @ o.Common.info));
  print_endline
    (Report.result_line ~correct ~attempted:o.Common.attempted ~failed:o.Common.failed metrics);
  exit (if correct then 0 else 1)
