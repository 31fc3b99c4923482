(* One repetition of one benchmark workload, in a fresh process with cold
   caches, from EasyML source to the final state digest.

     bench.exe WORKLOAD --seed N [--traced] [--setup-only] [--check]
               --out-dir DIR

   WORKLOAD is paced-native, catalogue or sheet-s1 (see README.md).

   Untraced, a run calls the entry points `limpetmlir run` and
   `limpetmlir tissue` reach: Models.Registry.model, Codegen.Cache.generate,
   Sim.Driver.create or Tissue.Monodomain.create, the step loop, and
   capture followed by Obs.Recorder.digest.  Traced, it calls each layer's
   public function itself inside an Obs.Tracer span of the layer's name,
   and attributes the traced wall time to the spans' self times.

   With --check, after the timed part every run's output is checked
   against an independent reference.  The repetition prints one JSON object on
   stdout; run.py aggregates repetitions into the benchmark result. *)

module D = Sim.Driver
module K = Codegen.Kernel
module Cache = Codegen.Cache
module Mono = Tissue.Monodomain
module J = Obs.Json

let dt = 0.01
let ncells = 8192
let now = Unix.gettimeofday

(* disabled tracer: exactly [f ()] *)
let span = Obs.Tracer.with_span

let workload = ref ""
let seed = ref 0
let traced = ref false
let setup_only = ref false
let check = ref false
let out_dir = ref "."

(* -- output checks --------------------------------------------------- *)

(* Failures by run index.  A run fails when it raises, runs on another
   engine than requested, or fails an output check. *)
let failures : (int * string) list ref = ref []

let fail run fmt =
  Printf.ksprintf (fun s -> failures := (run, s) :: !failures) fmt

let failed_runs () =
  List.length (List.sort_uniq compare (List.map fst !failures))

let check_engine run (d : D.t) (want : D.engine) =
  if d.D.engine <> want then
    fail run "requested engine %s, ran %s" (D.engine_name want)
      (D.engine_name d.D.engine)

(* Distance in units in the last place (the native differential's
   measure); NaN on either side is never within bound. *)
let ulp_diff (a : float) (b : float) : int64 =
  if Float.is_nan a || Float.is_nan b then Int64.max_int
  else
    let line x =
      let bits = Int64.bits_of_float x in
      if Int64.compare bits 0L < 0 then Int64.sub Int64.min_int bits else bits
    in
    Int64.abs (Int64.sub (line a) (line b))

(* The native engine's documented bound against the OCaml engines; every
   OCaml engine must match the reference bit for bit. *)
let ulp_bound = function D.Native -> 2L | _ -> 0L

(* -- per-layer accounting (traced repetitions) ------------------------ *)

let ops_after_pipeline = ref 0
let c_lines = ref 0
let cc_ms = ref 0.0
let cg_iters = ref 0
let ckpt_bytes = ref 0
let flops = ref 0.0
let bytes = ref 0.0

(* Computed work of [steps] compute stages: Machine.Kcost's static
   per-cell flops and bytes times the cells the kernel sweeps. *)
let account (d : D.t) ~steps =
  let c = Machine.Kcost.of_kernel d.D.gen in
  let cell_steps = float_of_int (d.D.ncells_pad * steps) in
  flops := !flops +. (c.Machine.Kcost.flops_per_cell *. cell_steps);
  bytes := !bytes +. (c.Machine.Kcost.bytes_per_cell *. cell_steps)

(* Traced repetitions analyze each model once, as Models.Registry.model
   memoizes it for untraced ones. *)
let analyzed : (string, Easyml.Model.t) Hashtbl.t = Hashtbl.create 64

let kernel (e : Models.Model_def.entry) (cfg : Codegen.Config.t) : K.t =
  if not !traced then Cache.generate cfg (Models.Registry.model e)
  else begin
    let m =
      match Hashtbl.find_opt analyzed e.name with
      | Some m -> m
      | None ->
          let m =
            span "easyml.analyze" (fun () ->
                Easyml.Sema.analyze_source ~name:e.name e.source)
          in
          Hashtbl.replace analyzed e.name m;
          m
    in
    let g =
      span "codegen.kernel" (fun () -> K.generate ~optimize:false cfg m)
    in
    span "passes.pipeline" (fun () -> Passes.Pipeline.optimize g.K.modl);
    ops_after_pipeline :=
      List.fold_left
        (fun n f -> n + Ir.Func.op_count f)
        !ops_after_pipeline g.K.modl.Ir.Func.m_funcs;
    span "ir.verify" (fun () -> Ir.Verifier.verify_module_exn g.K.modl);
    g
  end

(* Traced only: warm the specialized and native artifacts the driver is
   about to look up, so each lands in its own layer's span. *)
let warm_artifacts (g : K.t) (engine : D.engine) ~ncells =
  if !traced then begin
    let w = g.K.cfg.Codegen.Config.width in
    let spec =
      span "passes.specialize" (fun () ->
          Cache.specialize g ~dt ~ncells_pad:((ncells + w - 1) / w * w))
    in
    if engine = D.Native then begin
      let src =
        span "codegen.c_emit" (fun () ->
            Codegen.C_backend.emit_module spec.K.modl)
      in
      String.iter (fun c -> if c = '\n' then incr c_lines) src;
      let cc0 = (Cache.stats ()).Cache.cc_ms in
      (* an Error falls the driver back to another engine, which the
         engine check reports *)
      ignore (span "exec.native" (fun () -> Cache.native spec));
      cc_ms := !cc_ms +. ((Cache.stats ()).Cache.cc_ms -. cc0)
    end
  end

(* Source to a driver whose first step is ready. *)
let setup_cells (e : Models.Model_def.entry) cfg engine : D.t =
  let g = kernel e cfg in
  warm_artifacts g engine ~ncells;
  span "sim.create" (fun () -> D.create ~engine g ~ncells ~dt)

let step_cells (d : D.t) ~threads ~steps =
  let stim = Sim.Stim.default in
  if not !traced then
    for _ = 1 to steps do
      D.step ~nthreads:threads ~stim d
    done
  else
    for _ = 1 to steps do
      span "sim.compute" (fun () -> D.compute_stage ~nthreads:threads d);
      span "sim.update" (fun () -> D.membrane_update ~stim d);
      D.tick d
    done

let digest capture =
  span "obs.digest" (fun () -> Obs.Recorder.digest (capture ()))

(* -- timings shared by the workloads ---------------------------------- *)

let setup_s = ref 0.0
let step_s = ref 0.0
let cell_steps = ref 0
let runs = ref 0
let digests : (string * string) list ref = ref []
let extra : (string * J.t) list ref = ref []

let timed (acc : float ref) f =
  let t0 = now () in
  let r = f () in
  acc := !acc +. (now () -. t0);
  r

(* Reference trajectory for sampled cells: the Reference engine on the
   unoptimized kernel, in a driver holding only those cells with the
   same initial Vm, stepped with the same stimulus. *)
let check_cells run ~(e : Models.Model_def.entry) ~cfg ~engine ~steps
    ~(init_vm : float array option) ~(snaps : (string * float) list array) =
  let g = Cache.generate ~optimize:false cfg (Models.Registry.model e) in
  let r =
    D.create ~engine:D.Reference g ~ncells:(Array.length snaps) ~dt
  in
  Option.iter (Array.iteri (fun i v -> D.set_ext r "Vm" i v)) init_vm;
  for _ = 1 to steps do
    D.step ~stim:Sim.Stim.default r
  done;
  let bound = ulp_bound engine in
  Array.iteri
    (fun i snap ->
      List.iter2
        (fun (name, x) (_, y) ->
          if not (Float.is_finite x) then
            fail run "%s sample %d: %s = %g" e.name i name x
          else if Int64.compare (ulp_diff x y) bound > 0 then
            fail run "%s sample %d: %s = %.17g, reference %.17g" e.name i
              name x y)
        snap (D.snapshot r i))
    snaps

(* -- workloads --------------------------------------------------------- *)

(* TenTusscher, 8192 cells, the CLI's default -w 8 config on the native
   engine with 2 threads, paced by Sim.Stim.default past the upstroke.
   The seed offsets each cell's initial Vm below threshold so vector
   lanes take different paths through the lookup tables. *)
let paced_native () =
  let e = Models.Registry.find_exn "TenTusscher" in
  let cfg = Codegen.Config.mlir ~width:8 in
  let engine = D.Native and threads = 2 and steps = 1000 and nsamples = 16 in
  let rng = Random.State.make [| !seed |] in
  incr runs;
  let d = timed setup_s (fun () -> setup_cells e cfg engine) in
  check_engine 0 d engine;
  if not !setup_only then begin
    let vm = D.ext_buffer d "Vm" in
    for c = 0 to ncells - 1 do
      Float.Array.set vm c
        (Float.Array.get vm c +. Random.State.float rng 4.0 -. 2.0)
    done;
    let stride = ncells / nsamples in
    let samples =
      Array.init nsamples (fun i -> (i * stride) + Random.State.int rng stride)
    in
    let init_vm = Array.map (Float.Array.get vm) samples in
    timed step_s (fun () -> step_cells d ~threads ~steps);
    cell_steps := ncells * steps;
    account d ~steps;
    digests := [ ("TenTusscher", digest (fun () -> D.capture d)) ];
    let snaps = Array.map (D.snapshot d) samples in
    fun () ->
      check_cells 0 ~e ~cfg ~engine ~steps ~init_vm:(Some init_vm) ~snaps
  end
  else fun () -> ()

(* All 43 models at the scalar baseline (-w 1) and the vector config
   (-w 8), 8192 cells, the CLI's default engine on 2 threads, a few
   stimulated steps each.  The seed shuffles the order of the 86 runs.
   Every run gets the engine check; the first [checked] runs of the
   shuffled order also get the reference trajectory check, whose
   interpreted lookup-table build costs up to a second per model. *)
let catalogue () =
  let engine = D.Fused and threads = 2 and steps = 3 and checked = 3 in
  let pairs =
    Array.of_list
      (List.concat_map (fun e -> [ (e, 1); (e, 8) ]) Models.Registry.all)
  in
  let rng = Random.State.make [| !seed |] in
  for i = Array.length pairs - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = pairs.(i) in
    pairs.(i) <- pairs.(j);
    pairs.(j) <- t
  done;
  let checks = ref [] in
  Array.iteri
    (fun run ((e : Models.Model_def.entry), w) ->
      incr runs;
      let cfg =
        if w = 1 then Codegen.Config.baseline else Codegen.Config.mlir ~width:w
      in
      match timed setup_s (fun () -> setup_cells e cfg engine) with
      | exception ex -> fail run "%s -w %d: %s" e.name w (Printexc.to_string ex)
      | d ->
          check_engine run d engine;
          if not !setup_only then begin
            timed step_s (fun () -> step_cells d ~threads ~steps);
            cell_steps := !cell_steps + (ncells * steps);
            account d ~steps;
            let label = Printf.sprintf "%s/w%d" e.name w in
            digests := (label, digest (fun () -> D.capture d)) :: !digests;
            if run < checked then begin
              let snaps =
                Array.map (D.snapshot d) [| 0; ncells / 2; ncells - 1 |]
              in
              checks :=
                (fun () ->
                  check_cells run ~e ~cfg ~engine ~steps ~init_vm:None ~snaps)
                :: !checks
            end
          end)
    pairs;
  fun () -> List.iter (fun c -> c ()) (List.rev !checks)

(* MitchellSchaeffer on a 128x16 sheet, S1 planar wave, Godunov splitting,
   default engine on 1 thread, flight recorder armed at the CLI defaults
   (stride 1000, keep 3), stepped until every node has activated.  The
   seed is recorded but unused: the wavefront already spreads the nodes
   over every phase of the action potential.  The planar wave crosses the
   128 columns in the same number of steps whatever the row count; 16
   rows keep a repetition near 5 s, so one run takes the median of
   several. *)
let sheet_s1 () =
  let e = Models.Registry.find_exn "MitchellSchaeffer" in
  let cfg = Codegen.Config.mlir ~width:8 in
  let engine = D.Fused and max_steps = 12_000 and probe_stride = 500 in
  let geom = Tissue.Geometry.sheet ~nx:128 ~ny:16 ~dx:0.01 in
  let n = Tissue.Geometry.cells geom in
  let tcfg = { Mono.default_config with Mono.block_check_ms = Some 20.0 } in
  let ckpt_dir =
    Filename.concat !out_dir (Printf.sprintf "ckpt-%d" (Unix.getpid ()))
  in
  incr runs;
  let sim, w =
    timed setup_s (fun () ->
        let g = kernel e cfg in
        warm_artifacts g engine ~ncells:n;
        let sim =
          span "sim.create" (fun () ->
              Mono.create ~engine ~config:tcfg ~nthreads:1 g ~geom ~dt
                ~protocol:(Tissue.Protocol.s1 geom))
        in
        (sim, Obs.Recorder.create_writer ~keep:3 ~dir:ckpt_dir ~stride:1000 ()))
  in
  let d = Mono.driver sim in
  check_engine 0 d engine;
  let cleanup () =
    Array.iter
      (fun f -> Sys.remove (Filename.concat ckpt_dir f))
      (Sys.readdir ckpt_dir);
    Sys.rmdir ckpt_dir
  in
  if !setup_only then begin
    cleanup ();
    fun () -> ()
  end
  else begin
    let act = Mono.activation sim in
    (* traced only: CG iterations of the run's own diffusion operator on
       the run's Vm at sampled steps (the solver's internal count is not
       exposed through the monodomain step) *)
    let probe =
      if !traced then
        Some
          (span "solver.probe" (fun () ->
               Tissue.Diffusion.assemble geom ~sigma:tcfg.Mono.sigma ~dt))
      else None
    in
    let steps = ref 0 in
    timed step_s (fun () ->
        while
          !steps = 0
          || (Tissue.Activation.activated act < n && !steps < max_steps)
        do
          span "tissue.step" (fun () -> Mono.step sim);
          incr steps;
          if Obs.Recorder.due w ~step:d.D.steps_done then
            span "obs.checkpoint" (fun () ->
                ignore (Obs.Recorder.record w (Mono.capture sim)));
          match probe with
          | Some op when !steps mod probe_stride = 0 ->
              span "solver.probe" (fun () ->
                  ignore
                    (Tissue.Diffusion.solve op
                       (Float.Array.sub (D.ext_buffer d "Vm") 0 n));
                  Option.iter
                    (fun (s : Solver.Cg.stats) ->
                      cg_iters := !cg_iters + s.Solver.Cg.iterations)
                    (Tissue.Diffusion.cg_stats op))
          | _ -> ()
        done);
    cell_steps := n * !steps;
    account d ~steps:!steps;
    digests :=
      [ ("MitchellSchaeffer/sheet", digest (fun () -> Mono.capture sim)) ];
    ckpt_bytes := (Obs.Recorder.stats w).Obs.Export.cp_bytes;
    cleanup ();
    let cv_sheet = Mono.conduction_velocity sim in
    extra :=
      [
        ("steps", J.Num (float_of_int !steps));
        ("cv_sheet", match cv_sheet with Some v -> J.Num v | None -> J.Null);
      ];
    fun () ->
      let act_n = Tissue.Activation.activated act in
      if act_n < n then
        fail 0 "%d of %d nodes activated in %d steps" act_n n !steps;
      let re = Tissue.Activation.reactivated act in
      if re > 0 then fail 0 "%d nodes reactivated" re;
      if Mono.blocked sim then fail 0 "conduction block tripped";
      (* the planar wave is uniform in y, so every row of the sheet (CG)
         must propagate like a cable (Thomas) run on the reference engine *)
      let cable = Tissue.Geometry.cable ~n:(Tissue.Geometry.nx geom) ~dx:0.01 in
      let c =
        Mono.create ~engine:D.Reference ~config:tcfg
          (Cache.generate ~optimize:false cfg (Models.Registry.model e))
          ~geom:cable ~dt ~protocol:(Tissue.Protocol.s1 cable)
      in
      let k = ref 0 in
      while Mono.conduction_velocity c = None && !k < max_steps do
        Mono.step c;
        incr k
      done;
      match (cv_sheet, Mono.conduction_velocity c) with
      | Some a, Some b ->
          extra := ("cv_cable", J.Num b) :: !extra;
          if Float.abs (a -. b) > 1e-6 *. Float.abs b then
            fail 0 "sheet CV %.17g differs from cable CV %.17g" a b
      | _ -> fail 0 "conduction velocity not measured"
  end

(* -- trace attribution ------------------------------------------------- *)

(* Spans that own time: the benchmark's own spans around each public
   call, plus the monodomain step's phases, which no public function
   exposes on their own. *)
let layers =
  [
    "easyml.analyze"; "codegen.kernel"; "passes.pipeline"; "ir.verify";
    "passes.specialize"; "codegen.c_emit"; "exec.native"; "sim.create";
    "sim.compute"; "sim.update"; "tissue.step"; "tissue.ionic";
    "tissue.exchange"; "tissue.diffusion"; "solver.probe"; "obs.checkpoint";
    "obs.digest";
  ]

(* The layers between EasyML source and a driver whose first step is
   ready. *)
let setup_layers =
  [
    "easyml.analyze"; "codegen.kernel"; "passes.pipeline"; "ir.verify";
    "passes.specialize"; "codegen.c_emit"; "exec.native"; "sim.create";
  ]

(* Self time (ms) of every layer span and inclusive time (ms) of every
   span, on the main domain's track.  A layer's self time is its
   duration minus the part covered by nested layer spans; other spans
   nested in it count as its own time.  [pass:<p>] spans nested in
   [passes.pipeline] are reported as [passes.<p>]. *)
let attribute (snap : Obs.Tracer.snapshot) =
  let main = (Domain.self () :> int) in
  let self = Hashtbl.create 32 and incl = Hashtbl.create 32 in
  let add tbl k v =
    Hashtbl.replace tbl k
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  let stack = ref [] in
  List.iter
    (fun (ev : Obs.Tracer.event) ->
      if ev.Obs.Tracer.ev_dom = main then
        match (ev.Obs.Tracer.ev_kind, !stack) with
        | Obs.Tracer.Begin, st ->
            stack := (ev.Obs.Tracer.ev_name, ev.Obs.Tracer.ev_ts, ref 0.0) :: st
        | Obs.Tracer.End, (name, t0, covered) :: rest ->
            stack := rest;
            let ms = (ev.Obs.Tracer.ev_ts -. t0) /. 1000.0 in
            let in_pipeline =
              List.exists (fun (n, _, _) -> n = "passes.pipeline") rest
            in
            let key =
              if in_pipeline && String.starts_with ~prefix:"pass:" name then
                "passes." ^ String.sub name 5 (String.length name - 5)
              else name
            in
            add incl key ms;
            if List.mem name layers then begin
              add self name (ms -. !covered);
              match List.find_opt (fun (n, _, _) -> List.mem n layers) rest with
              | Some (_, _, c) -> c := !c +. ms
              | None -> ()
            end
        | Obs.Tracer.End, [] -> ())
    snap.Obs.Tracer.events;
  let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
  (get self, get incl)

let layer_report ~wall_s (snap : Obs.Tracer.snapshot) : (string * J.t) list =
  let self, incl = attribute snap in
  let sum names = List.fold_left (fun s l -> s +. self l) 0.0 names in
  let attributed = sum layers in
  let wall_ms = wall_s *. 1000.0 in
  let compute_ms =
    if !workload = "sheet-s1" then incl "driver.compute" else self "sim.compute"
  in
  let per_s x = if compute_ms > 0.0 then x /. (compute_ms /. 1000.0) else 0.0 in
  let num x = J.Num x and int x = J.Num (float_of_int x) in
  [
    ("easyml.analyze_ms", num (self "easyml.analyze"));
    ("codegen.kernel_ms", num (self "codegen.kernel"));
    ("passes.pipeline_ms", num (self "passes.pipeline"));
  ]
  @ List.map
      (fun p -> ("passes." ^ p ^ "_ms", num (incl ("passes." ^ p))))
      (List.sort_uniq String.compare
         (List.map (fun (p : Passes.Pass.t) -> p.Passes.Pass.name)
            Passes.Pipeline.standard))
  @ [
      ("ir.ops_after_pipeline", int !ops_after_pipeline);
      ("ir.verify_ms", num (self "ir.verify"));
      ("passes.specialize_ms", num (self "passes.specialize"));
      ("codegen.c_emit_ms", num (self "codegen.c_emit"));
      ("codegen.c_lines", int !c_lines);
      ("exec.cc_ms", num !cc_ms);
      ("exec.dlopen_ms", num (self "exec.native" -. !cc_ms));
      ("sim.create_ms", num (self "sim.create"));
      ("sim.compute_ms", num compute_ms);
      ("sim.update_ms", num (self "sim.update"));
      ("sim.compute_gflops", num (per_s (!flops /. 1e9)));
      ("sim.compute_gbps", num (per_s (!bytes /. 1e9)));
      ("kernel.oi", num (if !bytes > 0.0 then !flops /. !bytes else 0.0));
      ("tissue.step_ms", num (self "tissue.step"));
      ("tissue.ionic_ms", num (self "tissue.ionic"));
      ("tissue.exchange_ms", num (self "tissue.exchange"));
      ("tissue.diffusion_ms", num (self "tissue.diffusion"));
      ("solver.cg_iters", int !cg_iters);
      ("solver.probe_ms", num (self "solver.probe"));
      ("obs.checkpoint_ms", num (self "obs.checkpoint"));
      ("obs.checkpoint_bytes", int !ckpt_bytes);
      ("obs.digest_ms", num (self "obs.digest"));
      ("trace.wall_ms", num wall_ms);
      ("trace.unattributed_share", num ((wall_ms -. attributed) /. wall_ms));
      ("trace.setup_share", num (sum setup_layers /. wall_ms));
      ("trace.dropped_events", int snap.Obs.Tracer.dropped);
    ]

(* -- main -------------------------------------------------------------- *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let () =
  Arg.parse
    [
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--traced", Arg.Set traced, " record and attribute layer spans");
      ("--setup-only", Arg.Set setup_only, " stop when the first step is ready");
      ("--check", Arg.Set check, " check outputs against the references");
      ("--out-dir", Arg.Set_string out_dir, "DIR  checkpoints and traces");
    ]
    (fun w -> workload := w)
    "bench.exe WORKLOAD --seed N [--traced] [--setup-only] [--check] \
     --out-dir DIR";
  let run =
    match !workload with
    | "paced-native" -> paced_native
    | "catalogue" -> catalogue
    | "sheet-s1" -> sheet_s1
    | w ->
        prerr_endline ("unknown workload: " ^ w);
        exit 2
  in
  if !traced then begin
    Obs.Tracer.set_capacity (1 lsl 18);
    Obs.Tracer.reset ();
    Obs.Tracer.enable ()
  end;
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let checks = run () in
  let wall_s = now () -. t0 in
  let gc1 = Gc.quick_stat () in
  let rss = peak_rss_mb () in
  let cache = Cache.stats () in
  let layers =
    if !traced then begin
      Obs.Tracer.disable ();
      let snap = Obs.Tracer.snapshot () in
      let path = Filename.concat !out_dir ("trace-" ^ !workload ^ ".json") in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (Obs.Export.chrome snap));
      layer_report ~wall_s snap
    end
    else []
  in
  if !check then (
    try checks ()
    with ex -> fail 0 "output check raised %s" (Printexc.to_string ex));
  let words (s : Gc.stat) =
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let num x = J.Num x and int x = J.Num (float_of_int x) in
  let result =
    J.Obj
      ([
         ("workload", J.Str !workload);
         ("seed", int !seed);
         ("traced", J.Bool !traced);
         ("setup_only", J.Bool !setup_only);
         ("runs", int !runs);
         ("failed", int (failed_runs ()));
         ("failures", J.Arr (List.rev_map (fun (_, s) -> J.Str s) !failures));
         ("wall_s", num wall_s);
         ("setup_s", num !setup_s);
         ("step_s", num !step_s);
         ("cell_steps", int !cell_steps);
         ("peak_rss_mb", num rss);
         ( "cache_misses",
           int
             (cache.Cache.misses + cache.Cache.spec_misses
            + cache.Cache.native_misses) );
         ("gc_allocated_mb", num ((words gc1 -. words gc0) *. 8.0 /. 1e6));
         ( "gc_major_collections",
           int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
         ( "digests",
           J.Obj
             (List.map (fun (k, v) -> (k, J.Str v)) (List.sort compare !digests))
         );
         ("layers", J.Obj layers);
       ]
      @ !extra)
  in
  print_endline (J.to_string result)
