(** The six evaluation backbones of \u{00a7}9.1 as layer-shape inventories. *)

type t = { name : string; specs : Convspec.t list }

val resnet18 : t
val resnet34 : t
val efficientnet_v2_s : t
val vision_models : t list

val total_flops : t -> int
val total_params : t -> int

val resnet34_profile_layers : Convspec.t list
(** The four distinct ResNet-34 stage shapes used for the layer-wise
    NAS-PTE comparison of Fig. 9. *)
