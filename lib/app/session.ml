(** One simulation built from a {!Spec.t}, its step loop and its flight
    recorder.  See the interface. *)

module D = Sim.Driver
module Mono = Tissue.Monodomain

type sim = Cell of D.t | Tissue of Mono.t

type t = {
  spec : Spec.t;
  model : Easyml.Model.t;
  config : Codegen.Config.t;
  kernel : Codegen.Kernel.t;
  sim : sim;
  driver : D.t;
  writer : Obs.Recorder.writer option;
  mutable compute_s : float;
  mutable wall_s : float;
}

let version = "0.10.0"

let toolchain () =
  match Exec.Native.toolchain () with
  | Some tc -> tc.Exec.Native.id
  | None -> "unavailable"

let build_info () : Obs.Export.build_info =
  {
    Obs.Export.bi_version = version;
    bi_ocaml = Sys.ocaml_version;
    bi_pipeline = Codegen.Cache.pipeline_id;
    bi_toolchain = toolchain ();
  }

let build ~trace (spec : Spec.t) (model : Easyml.Model.t) : t =
  let config = Spec.config spec in
  if trace || spec.checkpoint <> None then begin
    Obs.Tracer.reset ();
    Obs.Tracer.enable ()
  end;
  let kernel = Codegen.Cache.generate config model in
  let { Spec.engine; tile; specialize; dt; _ } = spec in
  let sim =
    match spec.population with
    | Cells ncells -> Cell (D.create ~engine ~tile ~specialize kernel ~ncells ~dt)
    | Tissue ts ->
        let geom = Spec.geometry ts in
        Tissue
          (Mono.create ~engine ~tile ~specialize
             ~config:(Spec.monodomain_config ts) ~nthreads:spec.threads kernel
             ~geom ~dt ~protocol:(Spec.protocol ts geom))
  in
  let driver = match sim with Cell d -> d | Tissue m -> Mono.driver m in
  Option.iter
    (fun (h : Spec.health) ->
      D.enable_health
        ~cfg:
          { Obs.Health.default_config with stride = h.stride; policy = h.policy }
        driver)
    spec.health;
  let writer =
    Option.map
      (fun (c : Spec.checkpoint) ->
        Obs.Recorder.create_writer ~keep:c.keep ~extra:(Spec.to_meta spec)
          ~dir:c.dir ~stride:c.stride ())
      spec.checkpoint
  in
  { spec; model; config; kernel; sim; driver; writer; compute_s = 0.0;
    wall_s = 0.0 }

(* The numeric run inputs, checked once here so every command that builds
   a session refuses a bad one with the same diagnostic instead of an
   exception from deep inside the driver. *)
let check_inputs (spec : Spec.t) : (unit, Easyml.Diag.t) result =
  let pos_float x = Float.is_finite x && x > 0.0 in
  let population =
    match spec.population with
    | Cells n -> [ (n >= 1, Fmt.str "--cells must be at least 1 (got %d)" n) ]
    | Tissue ts ->
        [
          (ts.nx >= 2, Fmt.str "--nx must be at least 2 (got %d)" ts.nx);
          (pos_float ts.dx, Fmt.str "--dx must be positive (got %g)" ts.dx);
          ( Float.is_finite ts.sigma && ts.sigma >= 0.0,
            Fmt.str "--sigma must be non-negative (got %g)" ts.sigma );
        ]
  in
  let checkpoint =
    match spec.checkpoint with
    | None -> []
    | Some c ->
        [
          ( c.stride >= 1,
            Fmt.str "--checkpoint-stride must be at least 1 (got %d)" c.stride
          );
          ( c.keep >= 1,
            Fmt.str "--checkpoint-keep must be at least 1 (got %d)" c.keep );
        ]
  in
  let checks =
    [
      ( spec.threads >= 1,
        Fmt.str "--threads must be at least 1 (got %d)" spec.threads );
      (spec.width >= 1, Fmt.str "-w must be at least 1 (got %d)" spec.width);
      (pos_float spec.dt, Fmt.str "--dt must be positive (got %g)" spec.dt);
      (spec.tile >= 0, Fmt.str "--tile must be non-negative (got %d)" spec.tile);
      ( spec.steps >= 0,
        Fmt.str "--steps must be non-negative (got %d)" spec.steps );
    ]
    @ population @ checkpoint
  in
  match List.find_opt (fun (ok, _) -> not ok) checks with
  | None -> Ok ()
  | Some (_, msg) ->
      Error
        (Easyml.Diag.make ~sev:Easyml.Diag.Error ~code:"invalid-argument" msg)

let create ?(trace = false) (spec : Spec.t) : (t, Easyml.Diag.t) result =
  Result.bind (check_inputs spec) (fun () ->
      Result.map (build ~trace spec) (Spec.load_model spec.model))

let spec s = s.spec
let model s = s.model
let config s = s.config
let kernel s = s.kernel
let driver s = s.driver
let tissue s = match s.sim with Tissue m -> Some m | Cell _ -> None
let writer s = s.writer

let capture s =
  match s.sim with Cell d -> D.capture d | Tissue m -> Mono.capture m

let digest s = Obs.Recorder.digest (capture s)

let restore s ck =
  match s.sim with Cell d -> D.restore d ck | Tissue m -> Mono.restore m ck

let compute_s s = match s.sim with Cell _ -> s.compute_s | Tissue _ -> s.wall_s
let wall_s s = s.wall_s

(* -- step loop ---------------------------------------------------------- *)

(* SIGINT/SIGTERM land here while a checkpointed run owns the signals, so
   the loop can write a crash dump before exiting with 128 + signum. *)
exception Interrupted of int

let arm_signals () : unit =
  let h code = Sys.Signal_handle (fun _ -> raise (Interrupted code)) in
  Sys.set_signal Sys.sigint (h 130);
  Sys.set_signal Sys.sigterm (h 143)

let step s =
  let span =
    match s.sim with
    | Cell d ->
        s.compute_s <-
          s.compute_s
          +. D.step_timed ~nthreads:s.spec.threads ~stim:Sim.Stim.default d;
        "driver.checkpoint"
    | Tissue m ->
        Mono.step m;
        "tissue.checkpoint"
  in
  match s.writer with
  | Some w when Obs.Recorder.due w ~step:s.driver.D.steps_done ->
      Obs.Tracer.with_span span (fun () ->
          ignore (Obs.Recorder.record w (capture s)))
  | _ -> ()

type failure = { code : int; message : string; bundle : string option }

let health_text (d : D.t) : string option =
  Option.map
    (fun (hs : Obs.Health.snapshot) ->
      let nan, inf, range = Obs.Health.totals hs in
      Printf.sprintf
        "%s: %d step(s) sampled, %d NaN, %d Inf, %d range violation(s)\n"
        (if hs.hs_unhealthy then "UNHEALTHY" else "ok")
        hs.hs_steps_sampled nan inf range)
    (D.health_snapshot d)

(* Post-mortem bundle: structured report, recent trace events, health
   snapshot, and the newest on-disk checkpoint. *)
let fail s ~code ~reason message : failure =
  let d = s.driver in
  let dump (w : Obs.Recorder.writer) =
    let report =
      Obs.Json.(
        Obj
          [
            ("reason", Str reason);
            ("message", Str message);
            ("model", Str s.model.Easyml.Model.name);
            ("engine", Str (D.engine_name d.D.engine));
            ("step", Num (float_of_int d.D.steps_done));
            ("time_ms", Num (D.time d));
            ("version", Str version);
            ("pipeline", Str Codegen.Cache.pipeline_id);
          ])
    in
    Obs.Recorder.crash_dump ~dir:(Obs.Recorder.writer_dir w)
      ?last_checkpoint:(Obs.Recorder.last w) ~events:(Obs.Tracer.tail ())
      ?health:(health_text d) ~report ()
  in
  { code; message; bundle = Option.map dump s.writer }

let run ?(on_step = ignore) ?stop s ~steps =
  if s.writer <> None && stop = None then arm_signals ();
  let stopped = Option.value stop ~default:(fun () -> false) in
  let wall0 = Unix.gettimeofday () in
  let n = ref 0 in
  let result =
    try
      while !n < steps && not (stopped ()) do
        step s;
        incr n;
        on_step !n
      done;
      Ok !n
    with
    | Obs.Health.Tripped msg -> Error (fail s ~code:3 ~reason:"health-trip" msg)
    | Interrupted code ->
        Error
          (fail s ~code ~reason:"signal"
             (Printf.sprintf "interrupted by signal (exit %d)" code))
  in
  s.wall_s <- s.wall_s +. (Unix.gettimeofday () -. wall0);
  result

(* -- run outputs ------------------------------------------------------- *)

let metrics s =
  let d = s.driver in
  Obs.Export.prometheus ?health:(D.health_snapshot d)
    ?tissue:(Option.map Mono.stats (tissue s))
    ~build:(build_info ())
    ?checkpoint:(Option.map Obs.Recorder.stats s.writer)
    ~progress:
      {
        Obs.Export.pg_model = s.model.Easyml.Model.name;
        pg_step = d.D.steps_done;
        pg_steps_total = s.spec.steps;
        pg_time_ms = D.time d;
      }
    (Obs.Tracer.snapshot ())

(* Run manifest: everything an operator needs to reproduce or audit the
   run — model identity, engine/config/pipeline, toolchain, transval
   certificate count, population and BENCH-comparable timings. *)
let write_manifest s ~dir : string =
  let open Obs.Json in
  let d = s.driver in
  let certs =
    List.fold_left (fun n (_, cs) -> n + List.length cs) 0
      (Codegen.Cache.certificates ())
  in
  let kind, extra =
    match (s.sim, s.spec.population) with
    | Tissue m, Tissue ts ->
        ( "tissue",
          [
            ("geometry", Str (Tissue.Geometry.describe (Mono.geometry m)));
            ("splitting", Str (Spec.splitting_name ts.splitting));
            ("protocol", Str (Mono.protocol m).Tissue.Protocol.name);
          ] )
    | _ -> ("cell", [])
  in
  Obs.Recorder.write_manifest ~dir
    (Obj
       ([
          ("kind", Str kind);
          ("version", Str version);
          ("ocaml", Str Sys.ocaml_version);
          ("model", Str s.model.Easyml.Model.name);
          ( "model_digest",
            Str
              (Digest.to_hex
                 (Digest.string (Fmt.str "%a" Easyml.Model.pp s.model))) );
          ("config", Str (Codegen.Config.describe s.config));
          ("engine", Str (D.engine_name d.D.engine));
          ("tile", Num (float_of_int d.D.tile));
          ("specialized", Bool d.D.specialized);
          ("threads", Num (float_of_int s.spec.threads));
          ("pipeline", Str Codegen.Cache.pipeline_id);
          ("transval_certificates", Num (float_of_int certs));
          ("toolchain", Str (toolchain ()));
          ("cells", Num (float_of_int d.D.ncells));
          ("steps", Num (float_of_int s.spec.steps));
          ("dt_ms", Num d.D.dt);
          ( "timings",
            Obj [ ("compute_s", Num (compute_s s)); ("wall_s", Num s.wall_s) ]
          );
        ]
       @ extra))

let finish ?(final_digest = false) s =
  if final_digest || s.writer <> None then
    Fmt.pr "# final state digest: %s@." (digest s);
  Option.iter
    (fun w ->
      Fmt.pr "# run manifest -> %s@."
        (write_manifest s ~dir:(Obs.Recorder.writer_dir w)))
    s.writer

(* -- replay ------------------------------------------------------------ *)

let resume ~threads ?steps (file : string) =
  let ( let* ) = Result.bind in
  let* ck = Obs.Recorder.read file in
  let* spec = Spec.of_meta ck.Obs.Recorder.ck_meta in
  let* s =
    match create { spec with threads } with
    | r -> r
    | exception e ->
        Error
          (Easyml.Diag.makef ~sev:Easyml.Diag.Error ~code:"replay-failed"
             "cannot rebuild the run: %s" (Printexc.to_string e))
  in
  let* () = restore s ck in
  Ok
    ( s,
      match steps with
      | Some n -> n
      | None -> max 0 (spec.steps - ck.Obs.Recorder.ck_step) )
