(* The repository benchmark driver.

     pb.exe --workload NAME --seed N --seconds S --trace 0|1
            [--size full|tiny] [--corrupt] [--commit ID]

   With [--trace 0] it runs workload NAME untraced and reports its
   end-to-end metrics; with [--trace 1] it runs every workload's traced
   layer probes (NAME for the longest) and reports the per-layer
   metrics.  Human-readable lines come first; the last line of standard
   output is one JSON object with the keys [correct], [attempted],
   [failed] and [metrics].  Scratch files live under [_perfbench/] in
   the working directory. *)

let workloads =
  [ ("validate", (W_validate.e2e, W_validate.layers));
    ("corpus-query", (W_corpus.e2e, W_corpus.layers));
    ("serve", (W_serve.e2e, W_serve.layers));
    ("aggregate", (W_aggregate.e2e, W_aggregate.layers)) ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let size = ref "full" and corrupt = ref false and commit = ref "unknown" in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time of one run");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced layer run");
      ("--size", Arg.Set_string size, "full|tiny input scale (tiny: the self-test)");
      ("--corrupt", Arg.Set corrupt, " flip one expected answer (the checks must catch it)");
      ("--commit", Arg.Set_string commit, "ID source revision for the fingerprint") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "pb.exe [options]";
  let e2e =
    match List.assoc_opt !workload workloads with
    | Some (e2e, _) -> e2e
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  let size =
    match !size with
    | "full" -> Ctx.Full
    | "tiny" -> Ctx.Tiny
    | s ->
      prerr_endline ("unknown size: " ^ s);
      exit 2
  in
  let root = "_perfbench" in
  (try Sys.mkdir root 0o755 with Sys_error _ -> ());
  let workdir = Filename.concat root (Printf.sprintf "work-%d" (Unix.getpid ())) in
  Ctx.rm_rf workdir;
  Sys.mkdir workdir 0o755;
  let ctx = { Ctx.seed = !seed; seconds = !seconds; size; corrupt = !corrupt; workdir } in
  Report.line "# fingerprint nproc=%d ocaml=%s commit=%s"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !commit;
  Report.line "# run workload=%s seed=%d seconds=%g trace=%d size=%s jobs=%d" !workload
    !seed !seconds !trace
    (if size = Ctx.Full then "full" else "tiny")
    Ctx.jobs;
  Fun.protect
    ~finally:(fun () -> Ctx.rm_rf workdir)
    (fun () ->
      if !trace = 0 then e2e ctx
      else begin
        List.iter
          (fun (name, (_, layers)) ->
            let primary =
              if name = !workload then !seconds /. 2. else Float.min 1. (!seconds /. 8.)
            in
            Report.line "# traced layers: %s (primary %.1f s untraced + %.1f s traced)" name
              primary primary;
            layers { ctx with seconds = primary } ~primary)
          workloads;
        let spans = Span.all () in
        Report.line "# span self time (%d spans)" (List.length spans);
        Report.line "#   %-34s %8s %12s %12s" "name" "count" "total_ms" "self_ms";
        List.iter
          (fun (name, n, tot, self) ->
            Report.line "#   %-34s %8d %12.1f %12.1f" name n (tot *. 1e3) (self *. 1e3))
          (Span.summary spans);
        let out = Filename.concat root (Printf.sprintf "trace-%s-seed%d.tsv" !workload !seed) in
        Span.write out spans;
        Report.line "# spans written to %s" out
      end;
      Report.metric "failed_frac" "ratio"
        (float_of_int !Report.failed /. float_of_int (max 1 !Report.attempted))
        ~n:!Report.attempted;
      print_endline (Report.final_json ()))
