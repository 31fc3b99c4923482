(** Closure-compiling execution engine: IR is compiled once into OCaml
    closures over preallocated typed register files (the stand-in for
    LLVM native code generation).  Vector ops execute their whole width
    per dispatch, which is where the genuine wall-clock advantage of
    vectorized kernels comes from in this port.

    Compiled functions are NOT reentrant: each compilation owns one
    register file, so use one compiled instance per thread (the driver
    does).

    The compilation building blocks (slot allocation, register files, the
    per-op thunk compiler, module linking) are exposed for reuse by the
    {!Fused} threaded-code engine, which shares slot/env handling and
    falls back to {!compile_op} for ops it does not specialize. *)

exception Exec_error of string

val fail : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Exec_error} with a formatted message. *)

(** {1 Slots and register files} *)

type slot =
  | SF of int
  | SI of int
  | SB of int
  | SVF of int * int  (** slot, width *)
  | SVI of int * int
  | SVB of int * int
  | SM of int

type slots = {
  map : (int, slot) Hashtbl.t;
  mutable nf : int;
  mutable ni : int;
  mutable nb : int;
  mutable nvf : int;
  mutable nvi : int;
  mutable nvb : int;
  mutable vf_widths_rev : int list;
  mutable vi_widths_rev : int list;
  mutable vb_widths_rev : int list;
  mutable nm : int;
}

val collect_slots : Ir.Func.func -> slots
(** Assign a fixed slot to every SSA value of a function (O(1) per value). *)

type env = {
  f : float array;
  i : int array;
  b : bool array;
  vf : floatarray array;
  vi : int array array;
  vb : bool array array;
  m : floatarray array;
}

val make_env : slots -> env
(** Allocate the register file for a slot assignment. *)

(** {1 Compilation context} *)

type compiled = Rt.v array -> Rt.v array

type fctx = {
  slots : slots;
  env : env;
  get : string -> compiled;  (** module-level callee lookup *)
  return_box : Rt.v array ref;
}

val make_fctx : Ir.Func.func -> get:(string -> compiled) -> fctx

val slot : fctx -> Ir.Value.t -> slot
val fslot : fctx -> Ir.Value.t -> int
val islot : fctx -> Ir.Value.t -> int
val bslot : fctx -> Ir.Value.t -> int
val vfslot : fctx -> Ir.Value.t -> int * int
val vislot : fctx -> Ir.Value.t -> int * int
val vbslot : fctx -> Ir.Value.t -> int * int
val mslot : fctx -> Ir.Value.t -> int

val set_slot : fctx -> Ir.Value.t -> Rt.v -> unit
val get_slot : fctx -> Ir.Value.t -> Rt.v

val parallel_copy : fctx -> Ir.Value.t array -> Ir.Value.t list -> unit -> unit
(** Copy sources to destinations through temporaries (safe under
    permutation), as scf yields require. *)

type region_compiler =
  on_yield:(Ir.Op.op -> unit -> unit) -> Ir.Op.region -> unit -> unit
(** A region-body compiler, parameterizing {!compile_op} so structured ops
    compile their nested regions with whichever engine drives. *)

val compile_op : fctx -> compile_region:region_compiler -> Ir.Op.op -> unit -> unit
(** Compile any single op to a thunk over the context's register file. *)

val finish : fctx -> Ir.Func.func -> body:(unit -> unit) -> compiled
(** Wrap a compiled body into the external calling convention. *)

val module_linker :
  ?externs:Rt.registry ->
  Ir.Func.modl ->
  (get:(string -> compiled) -> Ir.Func.func -> compiled) ->
  string ->
  compiled
(** Lazy per-function compile-and-link with extern fallback. *)

(** {1 Scalar helpers shared with the fused engine} *)

val unary_fn : string -> (float -> float) option
val binary_fn : string -> (float -> float -> float) option
val fbin_fn : Ir.Op.fbin -> float -> float -> float
val ibin_fn : Ir.Op.ibin -> int -> int -> int
val bbin_fn : Ir.Op.bbin -> bool -> bool -> bool
val cmpf_fn : Ir.Op.cmp -> float -> float -> bool
val cmpi_fn : Ir.Op.cmp -> int -> int -> bool

(** {1 Entry points} *)

val compile_func : get:(string -> compiled) -> Ir.Func.func -> compiled
(** Compile one function against a callee lookup. *)

val compile_module :
  ?externs:Rt.registry -> Ir.Func.modl -> string -> compiled
(** Lazy per-function compiler; unknown names fall back to the extern
    registry. Local calls between module functions are supported.
    Every memory access is bounds-checked: an out-of-range index raises
    [Invalid_argument]. *)

val run :
  ?externs:Rt.registry -> Ir.Func.modl -> string -> Rt.v array -> Rt.v array
(** Compile and invoke one function. *)
