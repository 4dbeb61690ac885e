type 'a state = Empty of Engine.waitq | Filled of 'a

type 'a t = { engine : Engine.t; mutable state : 'a state }

let create engine = { engine; state = Empty (Engine.waitq ()) }

let fill t v =
  match t.state with
  | Filled _ -> invalid_arg "Ivar.fill: already filled"
  | Empty waiters ->
    t.state <- Filled v;
    Engine.wake_all t.engine waiters

let read t =
  match t.state with
  | Filled v -> v
  | Empty waiters ->
    Engine.park t.engine waiters;
    (match t.state with
    | Filled v -> v
    | Empty _ -> assert false)

let peek t = match t.state with Filled v -> Some v | Empty _ -> None

let is_filled t = match t.state with Filled _ -> true | Empty _ -> false
