(** Fused threaded-code execution engine.

    Same IR semantics and calling convention as {!Engine}, but
    straight-line region bodies are flattened into a flat instruction
    array executed by a tight dispatch loop, with a peephole
    superinstruction pass fusing mul+add, load-op-store, vector
    load/compute/store triples, and math-call+consumer pairs.  Fusions
    preserve bitwise numerics (every rounding step of the unfused form is
    kept).  Structured ops fall back to {!Engine.compile_op} with nested
    regions compiled by this engine.

    Compiled functions are NOT reentrant: one register file per
    compilation, so use one compiled instance per thread. *)

val compile_func :
  get:(string -> Engine.compiled) -> Ir.Func.func -> Engine.compiled
(** Compile one function with the fused engine (for custom linkers).
    Every memory access is bounds-checked: an out-of-range index raises
    [Invalid_argument]. *)

val compile_module :
  ?externs:Rt.registry -> Ir.Func.modl -> string -> Engine.compiled
(** Lazy per-function compiler; unknown names fall back to the extern
    registry.  Local calls between module functions are supported. *)

val run :
  ?externs:Rt.registry -> Ir.Func.modl -> string -> Rt.v array -> Rt.v array
(** Compile and invoke one function. *)
