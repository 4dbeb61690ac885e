module Block = Acfc_core.Block

type event =
  | Reference of { pos : int; block : Block.t }
  | Admit of { pos : int; block : Block.t }
  | Evict of { block : Block.t }
  | Invalidate of { block : Block.t }

module type CORE = sig
  type t

  val name : string
  val summary : string
  val adaptive : bool
  val needs_future : bool
  val create : capacity:int -> future:Block.t array -> t
  val on_event : t -> event -> unit
  val victim : t -> pos:int -> missing:Block.t -> Block.t
  val stats : t -> (string * float) list
end
