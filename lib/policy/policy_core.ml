module Block = Acfc_core.Block

module type CORE = sig
  type t

  val name : string
  val summary : string
  val adaptive : bool
  val needs_future : bool
  val create : capacity:int -> future:Block.t array -> t
  val find : t -> int -> int
  val key : t -> int -> int
  val reference : t -> pos:int -> int -> unit
  val admit : t -> pos:int -> int -> int
  val evict : t -> int -> unit
  val invalidate : t -> int -> unit
  val victim : t -> pos:int -> missing:int -> int
  val stats : t -> (string * float) list
end
