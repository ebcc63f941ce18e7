type t = { name : string; rate : Platform.t -> Kernel.t -> float }

let name t = t.name

let is_big_gpu (p : Platform.t) = p.Platform.name = "a100"
let is_cpu (p : Platform.t) = p.Platform.name = "mobile-cpu"

(* TVM: tuned generic codegen.  FP32 only (no TF32 tensor cores), solid
   efficiency everywhere, slightly lower on irregular indexing. *)
let tvm_rate (p : Platform.t) (k : Kernel.t) =
  let eff = if k.Kernel.regular then 0.60 else 0.42 in
  let eff = if k.Kernel.grouped && is_cpu p then eff *. 0.9 else eff in
  eff *. p.Platform.peak_gflops

(* TorchInductor: template-based.  Tensor cores on regular kernels when
   the GPU is "big"; ATen fallback for grouped/irregular kernels, which
   is particularly poor on mobile targets (see the EfficientNet-V2 and
   NAS-PTE discussions in the paper). *)
let inductor_rate (p : Platform.t) (k : Kernel.t) =
  if is_big_gpu p then
    if k.Kernel.regular && not k.Kernel.grouped then
      match p.Platform.tensor_core_gflops with
      | Some tc -> 0.30 *. tc (* TF32 templates, batch-1 utilization *)
      | None -> 0.75 *. p.Platform.peak_gflops
    else 0.42 *. p.Platform.peak_gflops (* Triton, FP32 *)
  else if k.Kernel.regular && (not k.Kernel.grouped) && k.Kernel.stages = 1 then
    0.50 *. p.Platform.peak_gflops
  else if is_cpu p then
    if k.Kernel.grouped then 0.10 *. p.Platform.peak_gflops
      (* ATen grouped-conv fallback *)
    else 0.28 *. p.Platform.peak_gflops (* multi-stage einsum via ATen *)
  else if k.Kernel.grouped then 0.25 *. p.Platform.peak_gflops
  else 0.32 *. p.Platform.peak_gflops

let tvm = { name = "tvm"; rate = tvm_rate }
let torchinductor = { name = "torchinductor"; rate = inductor_rate }
let all = [ tvm; torchinductor ]

let by_name name =
  match List.find_opt (fun c -> c.name = name) all with
  | Some c -> c
  | None -> invalid_arg ("Compiler_model.by_name: unknown compiler " ^ name)

let effective_gflops t p k = t.rate p k
