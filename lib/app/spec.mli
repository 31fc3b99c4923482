(** One run of the simulator, as the command line describes it.

    A [Spec.t] holds exactly the inputs [limpetmlir run], [tissue],
    [serve] and [profile] take: the model, the code-generation knobs
    (from which {!config} derives the [Codegen.Config.t]), the engine,
    the time discretization, the population (a cell count or a tissue
    geometry and protocol), and the health and checkpoint options.
    {!Session.create} turns a spec into a running simulation.

    {!to_meta} and {!of_meta} are the only writer and reader of a
    checkpoint's run metadata, so [limpetmlir replay] rebuilds every
    run the recorder wrote from the same fields:

    {v
    key               field                  encoding
    model_ref         model                  registry name or file path
    steps_total       steps                  decimal
    threads           threads                decimal
    cli_width         width                  decimal
    cli_layout        layout                 "" or aos / soa / aosoa<N>
    cli_no_lut        no_lut                 true / false
    cli_autovec       autovec                true / false
    cli_spline        spline                 true / false
    engine_req        engine                 fused / batched / native / closure / interp
    nx, ny            tissue nx, ny          decimal        (tissue only)
    dx_bits           tissue dx              float bits     (tissue only)
    sigma_bits        tissue sigma           float bits     (tissue only)
    splitting         tissue splitting       godunov / strang
    protocol          tissue protocol        s1 / s1s2 / restitution / s1-paced
    stim_width        tissue stim_width      decimal
    s2_start_bits     tissue s2_start        float bits
    s1_count          tissue s1_count        decimal
    s1_interval_bits  tissue s1_interval     float bits
    s2_coupling_bits  tissue s2_coupling     float bits
    block_check_bits  tissue block_check     float bits
    kind              population             cell / tissue
    ncells            cell count             decimal        (cell only)
    dt_bits           dt                     float bits
    tile              tile                   decimal
    specialized       specialize             true / false
    v}

    Float bits are {!Obs.Recorder.hex_of_float}, so [-0.0], subnormals
    and NaN payloads survive.  The last five keys are also written by
    the driver's own capture, whose values win in a checkpoint file: a
    checkpoint records the tile the batched engine resolved, and a
    replay asks for that tile (results are bitwise identical for every
    tile).  Health and checkpoint options say how a run is watched, not
    what it computes; they are not recorded, and a replayed run is
    unmonitored and writes no checkpoints. *)

type protocol =
  | S1  (** one planar pulse from the [x < stim_width] strip *)
  | S1s2  (** S1 plus a cross-field S2 shock at [s2_start] *)
  | Restitution
      (** [s1_count] S1 pulses [s1_interval] apart, then an S2
          [s2_coupling] after the last *)
  | S1_paced  (** the S1 pulse repeated every [s1_interval] ms *)

type tissue = {
  nx : int;
  ny : int;  (** 1 = cable, more = sheet *)
  dx : float;  (** cm *)
  sigma : float;  (** cm²/ms *)
  splitting : Tissue.Monodomain.splitting;
  protocol : protocol;
  stim_width : int;
  s2_start : float;
  s1_count : int;
  s1_interval : float;
  s2_coupling : float;
  block_check : float;  (** ms; 0 = detector off *)
}

type population = Cells of int | Tissue of tissue
type health = { stride : int; policy : Obs.Health.policy }
type checkpoint = { dir : string; stride : int; keep : int }

type t = {
  model : string;  (** registry name or EasyML file path *)
  width : int;
  layout : string;  (** [""] keeps the width's default layout *)
  no_lut : bool;
  autovec : bool;
  spline : bool;
  engine : Sim.Driver.engine;
  tile : int;
  specialize : bool;
  threads : int;
  dt : float;
  steps : int;  (** [serve]: 0 = until a signal arrives *)
  population : population;
  health : health option;
  checkpoint : checkpoint option;
}

val load_model : string -> (Easyml.Model.t, Easyml.Diag.t) result
(** Resolve a model reference: the bundled registry first, else an
    EasyML file.  Neither is an [unknown-model] error diagnostic.
    @raise Easyml.Sema.Error on a bad file. *)

val codegen_config :
  width:int -> layout:string -> no_lut:bool -> autovec:bool -> spline:bool ->
  Codegen.Config.t
(** The CLI's code-generation knobs as a config.
    @raise Failure on an unknown layout. *)

val config : t -> Codegen.Config.t
(** {!codegen_config} of the spec's knobs. *)

val engines : Sim.Driver.engine list
(** Every engine, in the order the CLI lists them. *)

val splitting_name : Tissue.Monodomain.splitting -> string

val paced_cable : cells:int -> tissue
(** The tissue that [serve --tissue] runs: an S1-paced cable of
    [max 2 cells] nodes, 0.01 cm apart, paced every 1000 ms, with the
    conduction-block detector armed at 100 ms. *)

val geometry : tissue -> Tissue.Geometry.t
val protocol : tissue -> Tissue.Geometry.t -> Tissue.Protocol.t
val monodomain_config : tissue -> Tissue.Monodomain.config

val to_meta : t -> (string * string) list
(** The run metadata, in the key order above. *)

val of_meta : (string * string) list -> (t, Easyml.Diag.t) result
(** Read {!to_meta}'s keys back.  A missing key, an unparsable value or
    a model reference that names neither a bundled model nor a file is
    a [checkpoint-meta] error, never an exception.  [health] and
    [checkpoint] come back [None]: [of_meta (to_meta s)] is
    [Ok { s with health = None; checkpoint = None }]. *)
