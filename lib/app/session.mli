(** A running simulation built from one {!Spec.t}: the step loop, the
    flight recorder around it, and the files a run leaves behind.

    Every simulating command goes through here.  [run] and [tissue]
    are {!create}, {!run}, {!finish}; [serve] and [profile] are
    {!create} and {!run}; [replay] is {!resume} then {!run}.  A
    checkpoint written under any of them therefore replays to the
    uninterrupted run's final state. *)

type t

val build_info : unit -> Obs.Export.build_info
(** Version, OCaml, pass pipeline and C toolchain, as recorded in
    manifests, crash reports and [/metrics]. *)

val create : ?trace:bool -> Spec.t -> (t, Easyml.Diag.t) result
(** Load the model, generate (and cache) the kernel, and build a
    {!Sim.Driver} for a cell population or a {!Tissue.Monodomain} for a
    tissue.  Attaches the health monitor and the checkpoint writer the
    spec asks for; the writer records {!Spec.to_meta} in every
    checkpoint.  With [trace] (default false) or a checkpoint writer,
    the tracer is reset and enabled before code generation, so a crash
    dump carries the recent events.
    A numeric input out of range — fewer than one thread, cell or
    vector lane, a non-positive or non-finite [dt], a negative tile or
    step count, a tissue under two nodes wide or with a non-positive
    [dx] or negative [sigma], a checkpoint stride or keep below one — is
    an [invalid-argument] diagnostic, checked before anything is built.
    An unknown model is {!Spec.load_model}'s diagnostic.
    @raise Failure on an unknown layout,
    [Codegen.Cache.Validation_failed] when validation is on and refutes
    a pass. *)

val spec : t -> Spec.t
val model : t -> Easyml.Model.t
val config : t -> Codegen.Config.t

val kernel : t -> Codegen.Kernel.t
(** The generated kernel, before runtime specialization. *)

val driver : t -> Sim.Driver.t
(** The cell driver; for a tissue, the monodomain's ionic driver. *)

val tissue : t -> Tissue.Monodomain.t option
val writer : t -> Obs.Recorder.writer option

type failure = {
  code : int;  (** exit code: 3 health trip, 128 + signal number *)
  message : string;
  bundle : string option;  (** crash-dump directory, when a writer ran *)
}

val run :
  ?on_step:(int -> unit) -> ?stop:(unit -> bool) -> t -> steps:int ->
  (int, failure) result
(** Advance up to [steps] steps; returns how many ran.  Each step runs
    the ionic (and, for a tissue, diffusion) stage under the default
    stimulus, records a checkpoint when one is due, then calls
    [on_step] with the 1-based step count of this call.  [stop] is
    polled before every step.  Without [stop], a checkpointed run turns
    SIGINT and SIGTERM into a failure with exit code 130 or 143; with
    it, signals stay the caller's.  A hard health trip is a failure with
    exit code 3.  On either failure the crash-dump bundle is written
    next to the checkpoints. *)

val compute_s : t -> float
(** Seconds spent stepping: the compute stage alone for a cell
    population, whole steps for a tissue. *)

val wall_s : t -> float
(** Wall-clock seconds inside {!run}. *)

val digest : t -> string
(** {!Obs.Recorder.digest} of the current state. *)

val metrics : t -> string
(** The Prometheus exposition of the session now: tracer spans, the
    health monitor, tissue counters, checkpoint-writer counters and the
    step progress toward the spec's total. *)

val finish : ?final_digest:bool -> t -> unit
(** Print [# final state digest: …] when [final_digest] or a checkpoint
    writer is set, then, with a writer, write [manifest.json] and print
    [# run manifest -> …]. *)

val resume : threads:int -> ?steps:int -> string -> (t * int, Easyml.Diag.t) result
(** Rebuild a run from a checkpoint file: read it, {!Spec.of_meta},
    {!create} on [threads] threads, restore the state.  Returns the
    session and the steps left: [steps] when given, else the recorded
    total minus the checkpoint's step.  A bad file, metadata the spec
    cannot read, a model that fails to load or a state that does not
    fit is an error, never an exception. *)
