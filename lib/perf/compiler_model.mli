(** Compiler backend models (\u{00a7}9.1, \u{00a7}9.2 discussion).

    {ul
    {- {b TVM (MetaSchedule)}: generic code generation with extensive
       tuning — consistent efficiency on every kernel shape, but no
       tensor cores for FP32, so it trails TorchInductor on large GPUs
       for regular matmul-like kernels.}
    {- {b TorchInductor}: template-based.  Efficient (and tensor-core
       capable via TF32) for the regular kernels its templates cover on
       large GPUs; on mobile CPUs/GPUs or for irregular/grouped kernels
       it falls back to pre-compiled ATen kernels with a substantial
       penalty — the instability seen in Fig. 5 and Fig. 9.}} *)

type t

val tvm : t
val torchinductor : t
val all : t list
val name : t -> string
val by_name : string -> t

val effective_gflops : t -> Platform.t -> Kernel.t -> float
(** Sustained compute throughput for this kernel on this platform. *)

