(* limpetMLIR command-line driver.

   Subcommands: list, inspect, check, emit, parse, run, replay, tissue,
   serve, profile, validate-metrics, passes, cost, import-mmt (see
   [limpetmlir --help]).  Models are resolved against the bundled
   registry first; a path to an EasyML file works everywhere a model
   name does.  The simulating commands build an [App.Spec.t] and run it
   through [App.Session]; this file only parses arguments and prints. *)

open Cmdliner
module Spec = App.Spec
module Session = App.Session

(* -- common args ---------------------------------------------------- *)

let model_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL")

let int_opt name default docv doc =
  Arg.(value & opt int default & info [ name ] ~docv ~doc)

let float_opt name default docv doc =
  Arg.(value & opt float default & info [ name ] ~docv ~doc)

let width_arg =
  Arg.(value & opt int 8 & info [ "w"; "width" ] ~docv:"W"
         ~doc:"Vector width: 1 (scalar baseline), 2 (SSE), 4 (AVX2), 8 (AVX-512).")

(* width, layout, no-lut, autovec and spline, passed to [make] *)
let knobs make =
  let layout =
    Arg.(value & opt string "" & info [ "layout" ] ~docv:"L"
           ~doc:"Data layout override: aos, soa, or aosoa<N>.")
  and no_lut =
    Arg.(value & flag & info [ "no-lut" ] ~doc:"Disable lookup-table generation.")
  and autovec =
    Arg.(value & flag & info [ "autovec" ]
           ~doc:"icc-style auto-vectorization cost profile (see paper section 5).")
  and spline =
    Arg.(value & flag & info [ "spline" ]
           ~doc:"Cubic (Catmull-Rom) lookup-table interpolation instead of \
                 linear (the paper's section 7 future-work item).")
  in
  Term.(const make $ width_arg $ layout $ no_lut $ autovec $ spline)

let config_term =
  knobs (fun width layout no_lut autovec spline ->
      Spec.codegen_config ~width ~layout ~no_lut ~autovec ~spline)

let engine_arg =
  Arg.(value
       & opt
           (enum (List.map (fun e -> (Sim.Driver.engine_name e, e)) Spec.engines))
           Sim.Driver.Fused
       & info [ "engine" ] ~docv:"E"
           ~doc:"Execution engine: $(b,fused) (threaded code with \
                 superinstructions, default), $(b,batched) (tile-batched \
                 loop inversion over coalesced scratch rows), $(b,native) \
                 (the lowered kernel emitted as C, compiled by the system \
                 toolchain — \\$LIMPET_CC, else cc/gcc/clang — and \
                 dlopen'ed; when no toolchain is found it degrades to \
                 $(b,batched) with a warning, never an error), \
                 $(b,closure) (per-op closures), or $(b,interp) (slow \
                 tree-walking reference).  All five engines produce \
                 bitwise-identical trajectories.")

let tile_arg =
  int_opt "tile" 0 "N"
    "Batched-engine tile size in vector blocks (0 = auto-size for L1; \
     ignored by the other engines)."

let specialize_arg =
  Arg.(value & opt bool true & info [ "specialize" ] ~docv:"BOOL"
         ~doc:"Partially evaluate the kernel over the run constants \
               ($(b,dt), padded cell count) before executing.  Bitwise \
               identical results either way; specialized artifacts are \
               cached per binding environment.  Default $(b,true).")

(* The spec fields every simulating command takes alike; each command
   supplies its own population, time span and observation options. *)
let spec_term =
  let mk width layout no_lut autovec spline model engine tile specialize
      ~threads ~dt ~steps ~health ~checkpoint population =
    { Spec.model; width; layout; no_lut; autovec; spline; engine; tile;
      specialize; threads; dt; steps; population; health; checkpoint }
  in
  Term.(const (fun model mk -> mk model) $ model_arg $ knobs mk $ engine_arg
        $ tile_arg $ specialize_arg)

let cells_arg default = int_opt "cells" default "N" "Number of cells."
let steps_arg default doc = int_opt "steps" default "N" doc

let dt_arg = Arg.(value & opt float 0.01 & info [ "dt" ] ~docv:"MS")
let threads_arg = Arg.(value & opt int 1 & info [ "threads" ] ~docv:"T")

let checkpoint_term =
  let dir =
    Arg.(value & opt (some string) None & info [ "checkpoint-dir" ] ~docv:"DIR"
           ~doc:"Arm the flight recorder: write periodic checkpoints (exact \
                 Int64 bit patterns of every state buffer, with an MD5 \
                 content digest) under $(docv), plus a run manifest at the \
                 end and a crash-dump bundle on a hard health trip or \
                 SIGINT/SIGTERM.  A run resumed from any checkpoint with \
                 $(b,limpetmlir replay) finishes bitwise-identical to the \
                 uninterrupted run, on every engine.")
  and stride =
    int_opt "checkpoint-stride" 1000 "N"
      "Checkpoint every N steps (with --checkpoint-dir)."
  and keep =
    int_opt "checkpoint-keep" 3 "K"
      "Keep only the newest K checkpoint files (rotation)."
  in
  let make dir stride keep = Option.map (fun dir -> { Spec.dir; stride; keep }) dir in
  Term.(const make $ dir $ stride $ keep)

let final_digest_arg =
  Arg.(value & flag & info [ "final-digest" ]
         ~doc:"Print the MD5 content digest of the final state (always \
               printed when --checkpoint-dir is set); two runs reaching \
               the same state bit-for-bit print the same digest.")

let output_arg doc =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let file_arg docv = Arg.(required & pos 0 (some file) None & info [] ~docv)

let read_text (path : string) : string =
  In_channel.with_open_bin path In_channel.input_all

let write_text (path : string) (text : string) : unit =
  let oc = open_out path in
  output_string oc text;
  if text = "" || text.[String.length text - 1] <> '\n' then
    output_char oc '\n';
  close_out oc

(* A failed step loop (health trip, signal) exits with its code once the
   crash-dump bundle is written. *)
let or_exit : (int, Session.failure) result -> unit = function
  | Ok _ -> ()
  | Error { Session.code; message; bundle } ->
      Fmt.epr "%s@." message;
      Option.iter (Fmt.epr "# crash dump -> %s@.") bundle;
      exit code

(* A model reference that resolves to nothing is a diagnostic and exit 1,
   never an uncaught exception. *)
let or_diag ~(file : string) : ('a, Easyml.Diag.t) result -> 'a = function
  | Ok x -> x
  | Error d ->
      Fmt.epr "%a@." (Easyml.Diag.pp ~file) d;
      exit 1

let load_model name = or_diag ~file:name (Spec.load_model name)

let create ?trace (spec : Spec.t) =
  or_diag ~file:spec.model (Session.create ?trace spec)

(* -- list, inspect -------------------------------------------------- *)

let list_cmd =
  let doc = "List the bundled ionic models." in
  let run () =
    Fmt.pr "%-24s %-7s %-11s %s@." "name" "class" "fidelity" "description";
    List.iter
      (fun (e : Models.Model_def.entry) ->
        Fmt.pr "%-24s %-7s %-11s %s@." e.name
          (Models.Model_def.cls_name e.cls)
          (match e.fidelity with
          | Models.Model_def.Faithful -> "faithful"
          | Structural -> "structural")
          e.description)
      Models.Registry.all;
    List.iter
      (fun (c, n) -> Fmt.pr "@.%d %s" n (Models.Model_def.cls_name c))
      (Models.Registry.class_counts ());
    Fmt.pr " = %d models@." (List.length Models.Registry.all)
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let inspect_cmd =
  let doc = "Show the analyzed form of a model." in
  let run name =
    let m = load_model name in
    Fmt.pr "%a@." Easyml.Model.pp m;
    List.iter (fun d -> Fmt.pr "%a@." (Easyml.Diag.pp ~file:name) d) m.warnings
  in
  Cmd.v (Cmd.info "inspect" ~doc) Term.(const run $ model_arg)

(* -- check ---------------------------------------------------------- *)

let check_cmd =
  let doc =
    "Lint EasyML models: analyzer diagnostics plus range-based checks \
     (unused state variables, lookup-table domains, markov occupancies). \
     Exits non-zero when any error-severity diagnostic is found.  A model \
     that passes runs identically on all five execution engines \
     ($(b,--engine) on run/tissue/profile/serve)."
  in
  let models =
    Arg.(value & pos_all string [] & info [] ~docv:"MODEL"
           ~doc:"Models to check (registry names or .easyml paths).")
  and all = Arg.(value & flag & info [ "all" ] ~doc:"Check every bundled model.")
  and format =
    Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Output format: $(b,text) (GCC-style, one line per \
                   diagnostic) or $(b,json) (an array of objects).")
  and deep =
    Arg.(value & flag & info [ "deep-verify" ]
           ~doc:"Also generate the scalar and vector kernels for each model \
                 and run the deep IR verifier (structural checks plus \
                 dataflow-backed range and initialization proofs).")
  and validate =
    Arg.(value & flag & info [ "validate-passes" ]
           ~doc:"Translation validation: compile each model's scalar and \
                 vector kernels (and a specialized variant) with the \
                 optimization pipeline in validating mode, proving every \
                 pass application semantics-preserving.  A refutation is \
                 an error (with the first diverging symbolic terms and \
                 the responsible pass); an undecided obligation is a \
                 warning.")
  and certs_out =
    Arg.(value & opt (some string) None & info [ "certs-out" ] ~docv:"FILE"
           ~doc:"With --validate-passes, write all per-pass certificates \
                 (pass id, IR digests, obligation count, verdict, time) \
                 as JSON to $(docv).")
  in
  let run models all format deep validate certs_out =
    let names =
      if all then
        List.map (fun (e : Models.Model_def.entry) -> e.name) Models.Registry.all
      else models
    in
    if names = [] then Fmt.failwith "no models to check (name one or pass --all)";
    let found, summary = App.Check.models ~deep ~validate names in
    let count sev =
      List.length (List.filter (fun (_, d) -> d.Easyml.Diag.sev = sev) found)
    in
    if format = `Text then
      List.iter (fun (file, d) -> Fmt.pr "%a@." (Easyml.Diag.pp ~file) d) found;
    Option.iter
      (fun (s : App.Check.summary) ->
        Option.iter
          (fun file -> write_text file (App.Check.certificates_json ()))
          certs_out;
        if format = `Text then
          Fmt.pr
            "validate-passes: %d certificate(s), %d proved, %d unknown, \
             %d refuted (%.1f ms)@."
            s.certificates
            (s.certificates - s.unknown - s.refuted)
            s.unknown s.refuted s.ms)
      summary;
    (match format with
    | `Text ->
        Fmt.pr "checked %d model(s): %d error(s), %d warning(s), %d info@."
          (List.length names) (count Easyml.Diag.Error)
          (count Easyml.Diag.Warning) (count Easyml.Diag.Info)
    | `Json ->
        Fmt.pr "[%s]@."
          (String.concat ",\n "
             (List.map (fun (file, d) -> Easyml.Diag.to_json ~file d) found)));
    if count Easyml.Diag.Error > 0 then exit 1
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const run $ models $ all $ format $ deep $ validate $ certs_out)

(* -- emit, parse ---------------------------------------------------- *)

let emit_cmd =
  let doc = "Print the generated IR module for a model." in
  let no_opt =
    Arg.(value & flag & info [ "no-opt" ] ~doc:"Skip the optimization pipeline.")
  and c_out =
    Arg.(value & flag & info [ "c" ]
           ~doc:"Emit the C translation unit the native engine would \
                 JIT-compile (the IR printed through the C backend, with \
                 a provenance header) instead of the IR itself.")
  in
  let run name cfg no_opt c_out output =
    let m = load_model name in
    let g = Codegen.Cache.generate ~optimize:(not no_opt) cfg m in
    (match Ir.Verifier.verify_module g.modl with
    | [] -> ()
    | errs -> Fmt.epr "%s@." (Ir.Verifier.errors_to_string errs));
    let text =
      if c_out then
        Codegen.C_backend.emit_module
          ~banner:
            [
              "model:    " ^ m.Easyml.Model.name;
              "config:   " ^ Codegen.Config.describe cfg;
              "pipeline: " ^ Codegen.Cache.pipeline_id;
              "flags:    " ^ String.concat " " Exec.Native.flags;
            ]
          g.modl
      else Ir.Printer.module_to_string g.modl
    in
    match output with
    | None -> Fmt.pr "%s@." text
    | Some path ->
        write_text path (text ^ "\n");
        Fmt.pr "wrote %s@." path
  in
  Cmd.v (Cmd.info "emit" ~doc)
    Term.(const run $ model_arg $ config_term $ no_opt $ c_out
          $ output_arg "Write the IR to a file instead of stdout (re-loadable \
                        with the parse subcommand).")

let parse_cmd =
  let doc = "Parse and verify a saved IR module (emit -o output)." in
  let run file =
    match Ir.Parser.parse_module_result (read_text file) with
    | Error e -> Fmt.epr "parse error: %s@." e
    | Ok m -> (
        match Ir.Verifier.verify_module m with
        | [] ->
            Fmt.pr "%s: %d function(s), %d ops, verifies OK@." m.Ir.Func.m_name
              (List.length m.Ir.Func.m_funcs)
              (List.fold_left (fun n f -> n + Ir.Func.op_count f) 0
                 m.Ir.Func.m_funcs)
        | errs -> Fmt.epr "%s@." (Ir.Verifier.errors_to_string errs))
  in
  Cmd.v (Cmd.info "parse" ~doc) Term.(const run $ file_arg "FILE")

(* -- run ------------------------------------------------------------ *)

let run_cmd =
  let doc = "Simulate a model and print an action-potential trace." in
  let every =
    int_opt "trace-every" 1000 "N"
      "Print the trace every N steps (0 = summary only)."
  and trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record a Chrome trace of the whole run (compile + every \
                 step) and write it to $(docv); load it in Perfetto or \
                 chrome://tracing.  Tracing never changes results.")
  and health =
    Arg.(value & flag & info [ "health" ]
           ~doc:"Monitor numerical health while running: per-variable \
                 NaN/Inf counts, gate clamp violations and a \
                 membrane-potential watchdog.  A hard trip (NaN, Inf, Vm \
                 out of range) aborts the run with exit code 3 and a \
                 report naming the variable, cell and step.  Monitoring \
                 never changes results.")
  and health_stride =
    int_opt "health-stride" 16 "N" "Sample health every N steps (with --health)."
  and validate =
    Arg.(value & flag & info [ "validate" ]
           ~doc:"Run the optimization pipeline in validating mode: prove \
                 every pass application (and the specializer) \
                 semantics-preserving before simulating.  A refutation \
                 aborts with exit code 4.")
  in
  let run mk cells steps dt every threads trace health stride validate
      checkpoint final_digest =
    let health = if health then Some { Spec.stride; policy = Abort } else None in
    if validate then Codegen.Cache.set_validation true;
    let s =
      try
        create ~trace:(trace <> None)
          (mk ~threads ~dt ~steps ~health ~checkpoint (Spec.Cells cells))
      with Codegen.Cache.Validation_failed cert ->
        Fmt.epr "translation validation refuted pass %s:@.%s@."
          cert.Analysis.Transval.c_pass (Analysis.Transval.cert_to_json cert);
        exit 4
    in
    let d = Session.driver s in
    Fmt.pr "# model=%s config=%s cells=%d steps=%d dt=%gms@."
      (Session.model s).name
      (Codegen.Config.describe (Session.config s))
      cells steps dt;
    if every > 0 then Fmt.pr "# t_ms Vm Iion@.";
    let print_trace n =
      if every > 0 && n mod every = 0 then
        Fmt.pr "%8.2f %10.4f %10.4f@." (Sim.Driver.time d) (Sim.Driver.vm d 0)
          (Sim.Driver.ext d "Iion" 0)
    in
    or_exit (Session.run ~on_step:print_trace s ~steps);
    Fmt.pr "# compute stage: %.3f s wall clock@." (Session.compute_s s);
    Session.finish ~final_digest s;
    Option.iter
      (fun (hs : Obs.Health.snapshot) ->
        let nan, inf, range = Obs.Health.totals hs in
        Fmt.pr "# health: %s — %d step(s) sampled, %d NaN, %d Inf, %d range \
                violation(s)@."
          (if hs.hs_unhealthy then "UNHEALTHY" else "ok")
          hs.hs_steps_sampled nan inf range)
      (Sim.Driver.health_snapshot d);
    Option.iter
      (fun path ->
        Obs.Tracer.disable ();
        let snap = Obs.Tracer.snapshot () in
        write_text path (Obs.Export.chrome snap);
        Fmt.pr "# trace: %d events -> %s@."
          (List.length snap.Obs.Tracer.events) path)
      trace;
    let r =
      Machine.Perfmodel.run_kernel (Session.kernel s) ~ncells:cells ~steps
        ~nthreads:threads
    in
    Fmt.pr "# machine model prediction on the paper's platform: %.3f s@."
      r.Machine.Perfmodel.seconds
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ spec_term $ cells_arg 16
          $ steps_arg 50_000 "Number of 0.01 ms time steps." $ dt_arg $ every
          $ threads_arg $ trace $ health $ health_stride $ validate
          $ checkpoint_term $ final_digest_arg)

(* -- tissue --------------------------------------------------------- *)

let tissue_term =
  let splitting =
    Arg.(value
         & opt (enum [ ("godunov", Tissue.Monodomain.Godunov);
                       ("strang", Tissue.Monodomain.Strang) ])
             Tissue.Monodomain.Godunov
         & info [ "splitting" ] ~docv:"S"
             ~doc:"Operator splitting: $(b,godunov) (ionic stage, then one \
                   IMEX exchange + implicit diffusion solve, first-order, \
                   default) or $(b,strang) (half diffusion / full ionic / \
                   half diffusion, second-order).")
  and protocol =
    Arg.(value
         & opt (enum [ ("s1", Spec.S1); ("s1s2", Spec.S1s2);
                       ("restitution", Spec.Restitution) ])
             Spec.S1
         & info [ "protocol" ] ~docv:"P"
             ~doc:"Stimulus protocol: $(b,s1) (planar wave from the x=0 \
                   strip, default), $(b,s1s2) (cross-field shock for \
                   spiral induction; set --s2-start), or \
                   $(b,restitution) (S1 pacing train plus premature S2; \
                   set --s1-count/--s1-interval/--s2-coupling).")
  in
  let make nx ny dx sigma splitting protocol stim_width s2_start s1_count
      s1_interval s2_coupling block_check =
    { Spec.nx; ny; dx; sigma; splitting; protocol; stim_width; s2_start;
      s1_count; s1_interval; s2_coupling; block_check }
  in
  Term.(const make
        $ int_opt "nx" 128 "N" "Nodes along x."
        $ int_opt "ny" 1 "N" "Nodes along y (1 = cable, >1 = sheet)."
        $ float_opt "dx" 0.01 "CM" "Node spacing, cm."
        $ float_opt "sigma" 0.001 "S" "Effective diffusivity, cm²/ms."
        $ splitting $ protocol
        $ int_opt "stim-width" 5 "N" "Stimulated strip width in cells."
        $ float_opt "s2-start" 340.0 "MS" "S2 shock time for --protocol=s1s2."
        $ int_opt "s1-count" 4 "N" "S1 pulses in the restitution train."
        $ float_opt "s1-interval" 400.0 "MS"
            "S1 pacing interval for --protocol=restitution."
        $ float_opt "s2-coupling" 300.0 "MS"
            "S2 coupling interval after the last S1."
        $ float_opt "block-check" 0.0 "MS"
            "Arm the conduction-block detector: trip unless propagation \
             left the stimulated region by this time (0 = off).")

let tissue_cmd =
  let doc =
    "Tissue-scale monodomain simulation: the generated ionic kernel on \
     every node of a 1-D cable or 2-D sheet, coupled to an implicit \
     diffusion solve by operator splitting.  Measures the activation \
     map, conduction velocity and reentry (reactivation) counts."
  in
  let health =
    Arg.(value & flag & info [ "health" ]
           ~doc:"Numerical-health monitoring with the Abort policy: a \
                 hard trip (NaN, Inf, Vm range, conduction block) exits \
                 with code 3.")
  and map_out =
    Arg.(value & opt (some string) None & info [ "map" ] ~docv:"FILE"
           ~doc:"Write the activation map to $(docv): CSV rows \
                 (cell,x,y,activation_ms,reactivations) when the name \
                 ends in .csv, a JSON object otherwise.")
  in
  let run mk (ts : Spec.tissue) dt steps threads health map_out checkpoint
      final_digest =
    let { Obs.Health.stride; _ } = Obs.Health.default_config in
    let health = if health then Some { Spec.stride; policy = Abort } else None in
    let s =
      create (mk ~threads ~dt ~steps ~health ~checkpoint (Spec.Tissue ts))
    in
    let sim = Option.get (Session.tissue s) in
    let geom = Tissue.Monodomain.geometry sim in
    Fmt.pr "# tissue model=%s %s engine=%s splitting=%s protocol=%s \
            dt=%gms sigma=%g threads=%d@."
      (Session.model s).name
      (Tissue.Geometry.describe geom)
      (Sim.Driver.engine_name (Session.driver s).engine)
      (Spec.splitting_name ts.splitting)
      (Tissue.Monodomain.protocol sim).name dt ts.sigma threads;
    or_exit (Session.run s ~steps);
    Session.finish ~final_digest s;
    let wall = Session.wall_s s in
    let act = Tissue.Monodomain.activation sim in
    let n = Tissue.Geometry.cells geom in
    Fmt.pr "# steps=%d time=%gms wall=%.3fs cells/sec=%.0f@." steps
      (Tissue.Monodomain.time sim) wall
      (float_of_int (n * steps) /. wall);
    Fmt.pr "# activated %d/%d cell(s); %d reactivated; conduction block: %s@."
      (Tissue.Activation.activated act) n
      (Tissue.Activation.reactivated act)
      (if Tissue.Monodomain.blocked sim then "TRIPPED" else "no");
    let pa, pb = Tissue.Monodomain.probes sim in
    let cv = Tissue.Monodomain.conduction_velocity sim in
    (match cv with
    | Some cv ->
        Fmt.pr "# conduction velocity cells %d->%d: %.4f cm/ms (%.1f cm/s)@."
          pa pb cv (cv *. 1000.0)
    | None ->
        Fmt.pr "# conduction velocity cells %d->%d: wave did not reach both \
                probes@."
          pa pb);
    Option.iter
      (fun path ->
        write_text path
          (if Filename.check_suffix path ".csv" then
             Tissue.Activation.to_csv act geom
           else Tissue.Activation.to_json ?cv act geom);
        Fmt.pr "# activation map -> %s@." path)
      map_out
  in
  Cmd.v (Cmd.info "tissue" ~doc)
    Term.(const run $ spec_term $ tissue_term $ dt_arg
          $ steps_arg 5_000 "Number of time steps." $ threads_arg $ health
          $ map_out $ checkpoint_term $ final_digest_arg)

(* -- replay ---------------------------------------------------------- *)

let replay_cmd =
  let doc =
    "Resume a simulation from a flight-recorder checkpoint (written by \
     run/tissue/serve with --checkpoint-dir).  The checkpoint is \
     self-describing: the run is rebuilt from its metadata, the state \
     buffers are restored bit-for-bit, and the remaining steps are \
     executed.  The resumed trajectory finishes bitwise-identical to the \
     uninterrupted run on every engine, native included; compare the \
     printed final state digests."
  in
  let steps =
    Arg.(value & opt (some int) None & info [ "steps" ] ~docv:"N"
           ~doc:"Steps to run from the checkpoint (default: the recorded \
                 total minus the checkpoint's step index).")
  in
  let run file threads steps =
    match Session.resume ~threads ?steps file with
    | Error d ->
        Fmt.epr "%a@." (Easyml.Diag.pp ~file) d;
        exit 1
    | Ok (s, remaining) ->
        let d = Session.driver s in
        let tissue = Session.tissue s in
        Fmt.pr "# replay %s: %s engine=%s resuming at step %d/%d t=%gms \
                (+%d step(s))@."
          file
          (match tissue with
          | None -> "model=" ^ (Session.model s).name
          | Some m ->
              Printf.sprintf "tissue model=%s %s" (Session.model s).name
                (Tissue.Geometry.describe (Tissue.Monodomain.geometry m)))
          (Sim.Driver.engine_name d.engine) d.steps_done (Session.spec s).steps
          (Sim.Driver.time d) remaining;
        or_exit (Session.run s ~steps:remaining);
        if tissue = None then
          Fmt.pr "# compute stage: %.3f s wall clock@." (Session.compute_s s)
        else Fmt.pr "# wall: %.3f s@." (Session.wall_s s);
        Fmt.pr "# final state digest: %s@." (Session.digest s)
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(const run $ file_arg "CHECKPOINT" $ threads_arg $ steps)

(* -- profile -------------------------------------------------------- *)

let profile_cmd =
  let doc =
    "Profile a model run: trace compile and simulation phases (pass \
     pipeline, kernel cache, per-step compute/update stages, per-Domain \
     chunks) and export the result."
  in
  let format =
    Arg.(value
         & opt
             (enum
                [ ("summary", `Summary); ("chrome", `Chrome);
                  ("prometheus", `Prometheus) ])
             `Summary
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Output format: $(b,summary) (per-span table, default), \
                   $(b,chrome) (trace-event JSON for Perfetto / \
                   chrome://tracing), or $(b,prometheus) (metrics text \
                   exposition).")
  in
  let run mk cells steps dt threads format output =
    (* Clear the kernel cache so the compile half (passes, codegen,
       verification) shows up in the profile rather than being served
       from a warm cache.  The health section rides along (Warn policy:
       a sick model should still produce its profile). *)
    Codegen.Cache.clear ();
    let { Obs.Health.stride; policy; _ } = Obs.Health.default_config in
    let s =
      create ~trace:true
        (mk ~threads ~dt ~steps ~health:(Some { Spec.stride; policy })
           ~checkpoint:None (Spec.Cells cells))
    in
    or_exit (Session.run s ~steps);
    Obs.Tracer.disable ();
    let snap = Obs.Tracer.snapshot () in
    let health = Sim.Driver.health_snapshot (Session.driver s) in
    let build = Session.build_info () in
    let text =
      match format with
      | `Summary ->
          (match Exec.Native.toolchain () with
          | Some tc ->
              Printf.sprintf "native backend: available (%s)\n" tc.Exec.Native.id
          | None ->
              "native backend: unavailable (no C compiler; --engine native \
               falls back to batched)\n")
          ^ Obs.Export.summary ?health ~build snap
      | `Chrome -> Obs.Export.chrome snap
      | `Prometheus -> Obs.Export.prometheus ?health ~build snap
    in
    match output with
    | None -> print_string text
    | Some path ->
        write_text path text;
        Fmt.pr "wrote %s (%d events, %d counters%s)@." path
          (List.length snap.Obs.Tracer.events)
          (List.length snap.Obs.Tracer.counters)
          (if snap.Obs.Tracer.dropped > 0 then
             Printf.sprintf ", %d dropped" snap.Obs.Tracer.dropped
           else "")
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const run $ spec_term $ cells_arg 256
          $ steps_arg 1000 "Number of time steps to profile." $ dt_arg
          $ threads_arg $ format
          $ output_arg "Write the export to a file instead of stdout.")

(* -- serve ----------------------------------------------------------- *)

let serve_cmd =
  let doc =
    "Run a simulation with live observability endpoints: GET /metrics \
     serves a Prometheus text exposition of the tracer and health \
     monitor, GET /healthz answers 200 while the simulation is \
     numerically healthy and 503 after a hard watchdog trip (NaN, Inf, \
     Vm out of range).  Stops cleanly on SIGINT/SIGTERM."
  in
  let port =
    int_opt "port" 9464 "P"
      "Listen port on 127.0.0.1 (0 picks an ephemeral port, printed at \
       startup)."
  and health_stride = int_opt "health-stride" 16 "N" "Sample health every N steps."
  and refresh = int_opt "refresh" 200 "N" "Re-publish /metrics every N steps."
  and pace =
    float_opt "pace" 0.0 "SECONDS"
      "Sleep between steps (throttle a demo run; 0 = flat out)."
  and tissue =
    Arg.(value & flag & info [ "tissue" ]
           ~doc:"Serve a tissue run instead of a single-cell population: \
                 a 1-D S1-paced monodomain cable of $(b,--cells) nodes, \
                 with the limpetmlir_tissue_* metric families \
                 (activation coverage, conduction-block trips, measured \
                 conduction velocity) added to /metrics.")
  in
  let run mk port cells steps dt threads stride refresh pace tissue
      checkpoint =
    let population =
      if tissue then Spec.Tissue (Spec.paced_cable ~cells) else Spec.Cells cells
    in
    let s =
      create ~trace:true
        (mk ~threads ~dt ~steps
           ~health:(Some { Spec.stride; policy = Obs.Health.Warn })
           ~checkpoint population)
    in
    let h = Option.get (Sim.Driver.health (Session.driver s)) in
    (* The sim loop publishes the exposition between steps; the HTTP
       thread only ever reads this atomic, so it never races the
       tracer's or the monitor's internals. *)
    let metrics = Atomic.make "" in
    let publish () = Atomic.set metrics (Session.metrics s) in
    publish ();
    let stop = Atomic.make false in
    let request_stop _ = Atomic.set stop true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    let reply ?(content_type = "text/plain") status body =
      Some { Obs.Httpd.status; content_type; body }
    in
    let server =
      Obs.Httpd.start ~port (fun path ->
          match List.hd (String.split_on_char '?' path) with
          | "/metrics" ->
              reply ~content_type:"text/plain; version=0.0.4" 200
                (Atomic.get metrics)
          | "/healthz" ->
              if Obs.Health.unhealthy h then reply 503 "unhealthy\n"
              else reply 200 "ok\n"
          | _ -> None)
    in
    Fmt.pr "# serving model=%s on http://127.0.0.1:%d (/metrics, /healthz); \
            cells=%d dt=%gms health-stride=%d@."
      (Session.model s).name (Obs.Httpd.port server) cells dt stride;
    let on_step n =
      if n mod refresh = 0 then publish ();
      if pace > 0.0 then Unix.sleepf pace
    in
    (match
       Session.run ~on_step ~stop:(fun () -> Atomic.get stop) s
         ~steps:(if steps = 0 then max_int else steps)
     with
    | Ok n ->
        publish ();
        if steps > 0 && n >= steps then
          Fmt.pr "# %d step(s) done; still serving (SIGINT/SIGTERM to stop)@." n;
        while not (Atomic.get stop) do
          Unix.sleepf 0.05
        done
    | Error f ->
        (* the Warn policy never trips; belt and braces *)
        Fmt.epr "%s@." f.message);
    Obs.Httpd.stop server;
    Obs.Tracer.disable ();
    Fmt.pr "# stopped cleanly@."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ spec_term $ port $ cells_arg 256
          $ steps_arg 0
              "Stop stepping after N steps but keep serving until a signal \
               arrives (0 = step until a signal arrives)."
          $ dt_arg $ threads_arg $ health_stride $ refresh $ pace $ tissue
          $ checkpoint_term)

(* -- validate-metrics, passes, cost, import-mmt ---------------------- *)

let validate_metrics_cmd =
  let doc =
    "Validate a Prometheus text exposition (as served at /metrics or \
     written by profile --format=prometheus): HELP/TYPE pairing, name \
     charsets, label escaping, sample values.  Exits 1 on the first \
     violation."
  in
  let run file =
    match Obs.Export.validate_prometheus (read_text file) with
    | Ok n -> Fmt.pr "%s: %d sample(s), exposition OK@." file n
    | Error e ->
        Fmt.epr "%s: %s@." file e;
        exit 1
  in
  Cmd.v (Cmd.info "validate-metrics" ~doc) Term.(const run $ file_arg "FILE")

let passes_cmd =
  let doc = "Show per-pass op-count reductions on a model's kernel." in
  let run name width =
    let m = load_model name in
    let cfg =
      if width = 1 then Codegen.Config.baseline else Codegen.Config.mlir ~width
    in
    let g = Codegen.Kernel.generate ~optimize:false cfg m in
    let count () =
      List.fold_left (fun n f -> n + Ir.Func.op_count f) 0 g.modl.Ir.Func.m_funcs
    in
    Fmt.pr "%-14s %8s@." "pass" "ops";
    Fmt.pr "%-14s %8d@." "(none)" (count ());
    List.iter
      (fun (name, p) ->
        ignore (Passes.Pass.run_on_module p g.modl);
        Fmt.pr "%-14s %8d@." name (count ()))
      Passes.Pipeline.by_name;
    match Ir.Verifier.verify_module g.modl with
    | [] -> Fmt.pr "module verifies after pipeline@."
    | errs -> Fmt.epr "%s@." (Ir.Verifier.errors_to_string errs)
  in
  Cmd.v (Cmd.info "passes" ~doc) Term.(const run $ model_arg $ width_arg)

let cost_cmd =
  let doc =
    "Machine-model analysis of a model's kernel: per-cell cycles, flops, \
     bytes, roofline position and projected runtime."
  in
  let run name cfg cells steps threads =
    let m = load_model name in
    let g = Codegen.Cache.generate cfg m in
    let k = Machine.Kcost.of_kernel g in
    Fmt.pr "kernel %s (%s)@." m.name (Codegen.Config.describe cfg);
    Fmt.pr "  per cell per step: %.1f cycles, %.1f flops, %.1f bytes@."
      k.Machine.Kcost.cycles_per_cell k.Machine.Kcost.flops_per_cell
      k.Machine.Kcost.bytes_per_cell;
    Fmt.pr "  loads/stores per cell: %.1f / %.1f@." k.Machine.Kcost.loads_per_cell
      k.Machine.Kcost.stores_per_cell;
    let r = Machine.Perfmodel.run_kernel g ~ncells:cells ~steps ~nthreads:threads in
    Fmt.pr "  projected on the paper's platform (%d cells, %d steps, %dT):@."
      cells steps threads;
    Fmt.pr "    time %.2f s  (compute %.2f s, memory %.2f s, sync %.2f s)@."
      r.Machine.Perfmodel.seconds r.Machine.Perfmodel.compute_seconds
      r.Machine.Perfmodel.memory_seconds r.Machine.Perfmodel.sync_seconds;
    Fmt.pr "    %.1f GFlop/s at %.3f Flops/Byte@." r.Machine.Perfmodel.gflops
      r.Machine.Perfmodel.oi
  in
  Cmd.v (Cmd.info "cost" ~doc)
    Term.(const run $ model_arg $ config_term $ cells_arg 8192
          $ Arg.(value & opt int 100_000 & info [ "steps" ] ~docv:"N")
          $ threads_arg)

let import_mmt_cmd =
  let doc =
    "Translate a Myokit MMT file to EasyML (the 'external translators' box \
     of the paper's Figure 1)."
  in
  let vm =
    Arg.(value & opt string "membrane.V" & info [ "vm" ] ~docv:"COMP.VAR"
           ~doc:"Variable exported as the Vm external.")
  and iion =
    Arg.(value & opt string "membrane.i_ion" & info [ "iion" ] ~docv:"COMP.VAR"
           ~doc:"Variable exported as the Iion external output.")
  and check =
    Arg.(value & flag & info [ "check" ]
           ~doc:"Also analyze, generate and verify the translated model.")
  in
  let run file vm iion check =
    let t = Easyml.Mmt.parse (read_text file) in
    let easyml = Easyml.Mmt.to_easyml ~vm ~iion t in
    print_string easyml;
    if check then begin
      let m = Easyml.Sema.analyze_source ~name:t.Easyml.Mmt.name easyml in
      let g = Codegen.Kernel.generate (Codegen.Config.mlir ~width:8) m in
      Ir.Verifier.verify_module_exn g.modl;
      Fmt.epr "# %s: %d states, %d externals; vector kernel verifies OK@."
        m.name (List.length m.states) (List.length m.externals)
    end
  in
  Cmd.v (Cmd.info "import-mmt" ~doc)
    Term.(const run $ file_arg "FILE" $ vm $ iion $ check)

let main =
  let doc =
    "limpetMLIR (OCaml reproduction): EasyML ionic models to vectorized IR"
  in
  Cmd.group (Cmd.info "limpetmlir" ~doc)
    [
      list_cmd; inspect_cmd; check_cmd; emit_cmd; parse_cmd; run_cmd;
      replay_cmd; tissue_cmd; serve_cmd; profile_cmd; validate_metrics_cmd;
      passes_cmd; cost_cmd; import_mmt_cmd;
    ]

let () = exit (Cmd.eval main)
