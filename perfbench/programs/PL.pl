
% PL: a depth-first blocks-world planner in the style of Sterling &
% Shapiro (The Art of Prolog, the planner of Chapter 14): states are
% lists of on(Block, Place) facts, actions move a clear block onto a
% place or onto another clear block, and the plan is the action list
% transforming the initial state into the final state. Entry points:
% test_plan(Plan) and transform(State1, State2, Plan).

test_plan(Plan) :-
    initial_state(test, Initial),
    final_state(test, Final),
    transform(Initial, Final, Plan).

% transform(State1, State2, Plan): Plan achieves State2 from State1,
% avoiding previously visited states.
transform(State1, State2, Plan) :-
    transform(State1, State2, [State1], Plan).

transform(State, State, _, []).
transform(State1, State2, Visited, [Action|Actions]) :-
    legal_action(Action, State1),
    update(Action, State1, State),
    not member(State, Visited),
    transform(State, State2, [State|Visited], Actions).

% An action moves a clear block X from Y to a clear place or onto a
% different clear block.
legal_action(to_place(Block, Y, Place), State) :-
    on(Block, Y, State),
    clear(Block, State),
    place(Place),
    clear(Place, State).
legal_action(to_block(Block1, Y, Block2), State) :-
    on(Block1, Y, State),
    clear(Block1, State),
    block(Block2),
    Block1 \== Block2,
    clear(Block2, State).

on(X, Y, State) :-
    member(on(X, Y), State).

clear(X, State) :-
    not member(on(_, X), State).

update(to_place(X, Y, Z), State, State1) :-
    substitute(on(X, Y), on(X, Z), State, State1).
update(to_block(X, Y, Z), State, State1) :-
    substitute(on(X, Y), on(X, Z), State, State1).

substitute(X, Y, [X|Xs], [Y|Xs]).
substitute(X, Y, [X1|Xs], [X1|Ys]) :-
    X \== X1,
    substitute(X, Y, Xs, Ys).

member(X, [X|_]).
member(X, [_|Ys]) :-
    member(X, Ys).

% The world: three blocks, three places.
block(a).
block(b).
block(c).

place(p).
place(q).
place(r).

% The test instance of Sterling & Shapiro: rebuild the tower a-on-b
% with b moved from place p onto block c.
initial_state(test, [on(a, b), on(b, p), on(c, r)]).
final_state(test, [on(a, b), on(b, c), on(c, r)]).
