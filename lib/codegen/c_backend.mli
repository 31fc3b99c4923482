(** C backend: pretty-print a lowered kernel module as one self-contained
    C translation unit (paper §5 — the "hand the loop nest to a real
    backend" step, with the system C compiler standing in for LLVM).

    The emitted unit contains, per IR function, a [static] definition
    with the natural parameter list (scalars by value, memrefs as
    [double *restrict]) plus one exported packed-ABI wrapper
    [void limpet_<name>(const int64_t *ia, const double *fa,
    double *const *ma)] that unpacks class-ordered argument arrays
    (I64/I1 params from [ia], F64 params from [fa], Memref params from
    [ma], each in declaration order) — the calling convention
    {!Exec.Native.bind} marshals to.

    Vector lowering: every [vector<Nx…>] SSA value is a local of a GNU
    vector type declared once per unit — [vdN] for f64 lanes, [vlN]
    ([int64_t] lanes) for i64 vectors and for i1 masks.  Element-wise
    arithmetic, negation, compares and [& | ^ ~] are whole-vector C
    expressions; a vector select is a bit-blend over its mask; splats,
    broadcasts and iota are brace initializers; contiguous vector
    loads/stores are one [__builtin_memcpy] (no alignment assumed);
    [sitofp]/[fptosi] use [__builtin_convertvector].  A mask lane is 0
    or -1 (what a vector compare yields), a scalar i1 is 0 or 1;
    extracting a mask lane normalizes it ([m[k] != 0]) and broadcasting
    a scalar i1 negates it.  Per-lane loops remain only where C has no
    bit-exact vector form: libm calls, [ml_fmin]/[ml_fmax], [fmod],
    gather/scatter, and the LUT helpers (which read the lookup vector
    through a [const double] pointer to it).  Vector widths must be
    powers of two (a GNU vector-size requirement); other widths raise
    {!Unsupported}.

    Floating-point policy: constants are emitted as hex literals, libm
    names match the interpreter's builtin registry, [fmin]/[fmax] use
    OCaml [Float.min]/[Float.max] semantics (emitted inline), and the
    unit is meant to be compiled with [-ffp-contract=off -fno-fast-math]
    so trajectories stay bitwise-comparable to the OCaml engines.
    A C compiler folds e.g. [tanh(<literal>)] at compile time with its
    own correctly-rounded library (MPFR), which can differ by 1 ULP from
    the glibc call the OCaml engines make at run time — so transcendental
    calls whose arguments are provably compile-time constants — outright
    or along one arm of a select the compiler can split — are emitted
    with one argument routed through a [volatile] temporary, pinning
    evaluation to run time.  Post-pipeline IR rarely carries such ops
    (the scalar constant folder already ate the fully-constant ones,
    using the host libm), but constant {e splats} in unspecialized
    vector kernels and constant select arms do; exactly-specified
    builtins (sqrt, fabs, floor, fmod, …) fold bitwise-identically and
    stay unguarded.

    Aliasing contract: because memref parameters are
    [restrict]-qualified, callers must pass pairwise-distinct buffers —
    the driver ABI (state, externals, params, table/row pairs) already
    does. *)

exception Unsupported of string
(** Raised by {!emit_module} on IR with no C lowering (vector-typed
    function parameters, vector widths that are not powers of two,
    [memref.alloc], calls with results, unknown externs).  Kernels produced by {!Kernel.generate} never trip this;
    it exists so arbitrary modules degrade with a diagnostic instead of
    emitting wrong code. *)

val symbol : string -> string
(** Exported (dlsym-visible) wrapper name for an IR function name:
    ["limpet_" ^ name] with non-identifier characters replaced by [_].
    Shared contract with {!Exec.Native.bind} callers. *)

val emit_module : ?banner:string list -> Ir.Func.modl -> string
(** The complete C translation unit for a module.  [banner] lines are
    embedded as a provenance comment header (model, pipeline id, digest,
    compiler, flags — whatever the caller records). *)
